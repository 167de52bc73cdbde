"""Log validation (Theorem 3.1).

Given a Spocus transducer T, a database D, and a log sequence L, decide
whether some input sequence I produces exactly L.  The reduction
replicates the input schema once per log step, asserts the database
content, and asserts that each log relation at each step has exactly
the logged content -- input relations directly, output relations via
their defining formulas.  The conjunction prenexes to an ∃*∀*FO
sentence, which :func:`repro.logic.bsr.decide_bsr` decides.

When the answer is positive, the decoded witness input sequence is
*replayed* through the real transducer and the produced log compared to
L -- an end-to-end consistency check between the symbolic encoding and
the operational semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.spocus import SpocusTransducer
from repro.errors import VerificationError
from repro.logic.bsr import GroundingStats, decide_bsr
from repro.logic.fol import conjoin
from repro.relalg.instance import Instance
from repro.verify.encoder import (
    RunEncoder,
    decode_database,
    decode_input_sequence,
)

LogLike = Sequence[Instance] | Sequence[dict]


@dataclass
class LogValidityResult:
    """Outcome of :func:`check_log_validity`.

    ``witness_inputs`` is a generating input sequence when the log is
    valid; ``witness_database`` is additionally populated in unknown-
    database mode.  ``stats`` carries grounding/solver statistics.
    """

    valid: bool
    witness_inputs: list[Instance] | None = None
    witness_database: Instance | None = None
    stats: GroundingStats = field(default_factory=GroundingStats)


def _coerce_log(
    transducer: SpocusTransducer, log: LogLike
) -> list[Instance]:
    schema = transducer.schema.log_schema
    coerced = []
    for entry in log:
        if isinstance(entry, Instance):
            if set(entry.schema.names) != set(schema.names):
                entry = entry.project_onto(schema)
            coerced.append(entry)
        else:
            coerced.append(Instance(schema, dict(entry)))
    return coerced


def check_log_validity(
    transducer: SpocusTransducer,
    database: dict | Instance | None,
    log: LogLike,
    replay: bool = True,
) -> LogValidityResult:
    """Decide whether ``log`` is a valid log of ``transducer`` on ``database``.

    Pass ``database=None`` for the unknown-database variant mentioned
    after Theorem 3.1: decide whether *some* database makes the log
    valid (the witness database is then extracted from the model).

    This is the engine behind the :class:`repro.verify.api.LogValidity`
    spec; prefer checking specs through a
    :class:`~repro.verify.api.Verifier`, which adds typed verdicts and
    replayable counterexample traces.
    """
    entries = _coerce_log(transducer, log)
    if not entries:
        return LogValidityResult(valid=True, witness_inputs=[])
    encoder = RunEncoder(transducer, len(entries))
    conjuncts = [encoder.log_axioms(entries)]
    db_instance: Instance | None = None
    if database is not None:
        db_instance = transducer.coerce_database(database)
        conjuncts.append(encoder.database_axioms(db_instance))
    sentence = conjoin(conjuncts)
    extra = encoder.constants(database=db_instance, log=entries)
    result = decide_bsr(sentence, extra_constants=tuple(sorted(extra, key=repr)))
    if not result.satisfiable:
        return LogValidityResult(valid=False, stats=result.stats)

    assert result.model is not None
    witness = decode_input_sequence(transducer, len(entries), result.model)
    witness_db = db_instance
    if witness_db is None:
        witness_db = decode_database(transducer, result.model)
    if replay:
        run = transducer.run(witness_db, witness)
        if list(run.logs) != entries:
            raise VerificationError(
                "internal error: decoded witness does not reproduce the "
                "log (encoder/semantics mismatch)"
            )
    return LogValidityResult(
        valid=True,
        witness_inputs=witness,
        witness_database=witness_db if database is None else None,
        stats=result.stats,
    )
