"""Temporal properties of runs (Theorem 3.3).

The class T_past-input consists of sentences ∀x̄ φ(x̄) where φ is a
Boolean combination of literals over output, database, and state
relations.  A run satisfies the sentence if it holds at every stage,
with ``past-R(ū)`` reading "R(ū) was input at some earlier stage".

The canonical example (Section 2.1): "deliver(x) cannot be output
unless pay(x, y) has been previously input, where price(x, y) is in the
database"::

    ∀x ∀y [ (deliver(x) ∧ price(x, y)) → past-pay(x, y) ]

Verification reduces to unsatisfiability of the negation on two-step
runs: any reachable (state, input) pair of any run is realized at the
second step of some two-step run (same collapsing lemma as
Theorem 3.2), with the *violating stage's own input* being the second
step's input and the accumulated earlier inputs the first step's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spocus import PAST_PREFIX, SpocusTransducer
from repro.errors import VerificationError
from repro.logic.bsr import GroundingStats, decide_bsr
from repro.logic.fol import (
    And,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Rel,
    Top,
    conjoin,
)
from repro.logic.prenex import to_nnf
from repro.relalg.instance import Instance
from repro.verify.encoder import (
    RunEncoder,
    decode_database,
    decode_input_sequence,
)


def _translate(formula: Formula, encoder: RunEncoder, step: int) -> Formula:
    """Translate a T_past-input formula to the replicated-run schema.

    Output atoms become their defining formulas at ``step``; ``past-R``
    atoms become disjunctions over earlier steps; database atoms stay.
    Boolean structure and quantifiers are preserved.
    """
    schema = encoder.transducer.schema
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Eq):
        return formula
    if isinstance(formula, Rel):
        name = formula.predicate
        if name in schema.outputs:
            return encoder.output_formula(name, formula.terms, step)
        if name in schema.state:
            # T_past-input sentences see the state *after* the stage
            # (S_i), so the current input counts as "past" -- the
            # paper's "sometimepast" includes the present stage.
            return encoder.past_formula(
                name[len(PAST_PREFIX):], formula.terms, step, inclusive=True
            )
        if name in schema.database:
            return formula
        raise VerificationError(
            f"T_past-input literal over unknown relation {name!r} "
            "(allowed: output, state, database)"
        )
    if isinstance(formula, Not):
        return Not(_translate(formula.operand, encoder, step))
    if isinstance(formula, And):
        return conjoin(_translate(f, encoder, step) for f in formula.operands)
    if isinstance(formula, Or):
        from repro.logic.fol import disjoin

        return disjoin(_translate(f, encoder, step) for f in formula.operands)
    if isinstance(formula, Implies):
        return Implies(
            _translate(formula.antecedent, encoder, step),
            _translate(formula.consequent, encoder, step),
        )
    if isinstance(formula, Iff):
        return Iff(
            _translate(formula.left, encoder, step),
            _translate(formula.right, encoder, step),
        )
    if isinstance(formula, Forall):
        return Forall(
            formula.variables, _translate(formula.body, encoder, step)
        )
    if isinstance(formula, Exists):
        return Exists(
            formula.variables, _translate(formula.body, encoder, step)
        )
    raise VerificationError(f"untranslatable node: {formula!r}")


@dataclass
class TemporalVerdict:
    """Outcome of :func:`check_temporal_property`.

    When the property fails, ``counterexample_inputs`` is a two-step
    input sequence whose run violates it at the second stage.
    """

    holds: bool
    counterexample_inputs: list[Instance] | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)
    counterexample_database: Instance | None = None


def check_temporal_property(
    transducer: SpocusTransducer,
    property_formula: Formula,
    database: dict | Instance | None = None,
    replay: bool = True,
) -> TemporalVerdict:
    """Decide whether every run satisfies a T_past-input sentence.

    With ``database=None`` the property is checked over *all* databases
    (the relations are left uninterpreted), which is the stronger,
    schema-level guarantee; passing a concrete database restricts the
    claim to that instance.  On failure in unknown-database mode, the
    witness database making the counterexample run possible is decoded
    into ``counterexample_database``.

    This is the engine behind the
    :class:`repro.verify.api.TemporalProperty` spec; prefer checking
    specs through a :class:`~repro.verify.api.Verifier`.
    """
    encoder = RunEncoder(transducer, 2)
    violation = _translate(Not(property_formula), encoder, 2)
    conjuncts: list[Formula] = [violation]
    db_instance: Instance | None = None
    if database is not None:
        db_instance = transducer.coerce_database(database)
        conjuncts.append(encoder.database_axioms(db_instance))
    sentence = to_nnf(conjoin(conjuncts))
    extra = encoder.constants(database=db_instance)
    extra |= {v for v in property_formula.constants()}
    result = decide_bsr(sentence, extra_constants=tuple(sorted(extra, key=repr)))
    if not result.satisfiable:
        return TemporalVerdict(True, stats=result.stats)
    assert result.model is not None
    witness = decode_input_sequence(transducer, 2, result.model)
    witness_db = db_instance
    if witness_db is None:
        witness_db = decode_database(transducer, result.model)
    if replay and db_instance is not None:
        run = transducer.run(db_instance, witness)
        if check_run_satisfies(transducer, run, property_formula, db_instance):
            raise VerificationError(
                "internal error: decoded counterexample does not violate "
                "the property"
            )
    return TemporalVerdict(
        False,
        witness,
        stats=result.stats,
        counterexample_database=witness_db if db_instance is None else None,
    )


def check_run_satisfies(
    transducer: SpocusTransducer,
    run,
    property_formula: Formula,
    database: dict | Instance,
) -> bool:
    """Operationally check a T_past-input property on a concrete run.

    Used to validate counterexamples and in tests: evaluates the
    property at every stage with the stage's output, the database, and
    the state *before* the stage (``past-R`` = inputs strictly earlier).
    """
    db = transducer.coerce_database(database)
    from repro.logic.structures import Structure

    nnf = to_nnf(property_formula)
    for index in range(len(run.inputs)):
        relations: dict[str, set[tuple]] = {}
        for rel in transducer.schema.database:
            relations[rel.name] = set(db[rel.name])
        for rel in transducer.schema.outputs:
            relations[rel.name] = set(run.outputs[index][rel.name])
        for rel in transducer.schema.inputs:
            # State after the stage: inputs up to and including this one.
            earlier: set[tuple] = set()
            for j in range(index + 1):
                earlier |= set(run.inputs[j][rel.name])
            relations[PAST_PREFIX + rel.name] = earlier
        domain = set()
        for rows in relations.values():
            for row in rows:
                domain.update(row)
        domain |= {v for v in property_formula.constants()}
        if not domain:
            domain = {"@default"}
        structure = Structure.of(domain, relations)
        if not structure.evaluate(nnf):
            return False
    return True
