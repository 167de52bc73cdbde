"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single exception type at API boundaries.  The
subclasses mirror the major subsystems: schemas, datalog rules, transducer
restrictions, logic/solver limits, and parsing.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema or transducer schema is malformed or violated.

    Raised, for example, when a tuple of the wrong arity is inserted into
    a relation, when two transducer schema components overlap, or when a
    log relation is not among the input/output relations.
    """


class ArityError(SchemaError):
    """A tuple's arity does not match its relation's declared arity."""


class UnknownRelationError(SchemaError):
    """A relation name was referenced that the schema does not declare."""


class SessionError(ReproError):
    """A runtime session lookup or lifecycle operation failed.

    Raised for unknown or already-existing session ids, malformed ids
    (session ids double as store file names), and invalid store
    arguments -- the lifecycle errors of :mod:`repro.pods`.
    """


class StoreError(SessionError):
    """A session store failed as a storage backend.

    Raised by :mod:`repro.pods` store implementations for backend-level
    failures: using a store after :meth:`close`, an unusable store
    target passed to ``open_store``, a destination that cannot import
    snapshots, or a corrupt/locked SQLite file.  Subclasses
    :class:`SessionError` so existing lifecycle handlers keep working.
    """


class ShardError(SessionError):
    """Session routing across shards failed.

    Raised for an invalid shard count (:func:`~repro.pods.service.shard_of`);
    it crosses the wire as its own error code.
    """


class ScenarioError(ReproError):
    """A workload scenario is misdeclared or was looked up incorrectly.

    Raised by :mod:`repro.scenarios` when a scenario class registers
    without a name, two scenarios claim the same name, or a caller asks
    the registry for a name it does not hold.
    """


class ServerError(ReproError):
    """The process-level pod server failed outside a session's semantics.

    Raised by :mod:`repro.server` for server-side faults that are not a
    session/store/shard error in their own right: a worker process that
    died while a request was in flight, a request that timed out waiting
    for its worker, a front-end asked to route to a worker it does not
    have.  The wire codec maps these to the ``server-error`` wire code
    (HTTP 500/503-style) so :class:`~repro.server.client.PodClient`
    callers see the same typed exception the server raised.
    """


class Backpressure(ServerError):
    """A pod server worker's request queue is full; try again later.

    Admission control of :mod:`repro.server`: each worker process is fed
    by a bounded in-flight window, and a request arriving while the
    window is full is *rejected* with this error (wire code
    ``backpressure``, HTTP 429) instead of queueing unboundedly -- the
    429-style contract that keeps an overloaded pod server's latency
    bounded.  ``shard`` names the saturated worker, ``queue_depth`` its
    window size.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: "int | None" = None,
        queue_depth: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.queue_depth = queue_depth


class WireError(ServerError):
    """A wire payload is malformed or of an unsupported version.

    Raised by :mod:`repro.server.wire` when decoding: non-object
    payloads, missing/unknown wire versions, unknown message kinds, and
    structurally invalid bodies.  Both sides raise it -- a server
    receiving garbage answers with a typed ``wire-error`` envelope
    (never crashing the worker), and a client receiving a response it
    cannot decode raises it locally.
    """


class RuleError(ReproError):
    """A datalog rule is malformed (unsafe, wrong head, bad literal)."""


class SafetyError(RuleError):
    """A rule violates the range-restriction (safety) condition.

    Section 3.1 of the paper requires every variable of a rule to occur
    in a positive relational literal of the body.
    """


class SpocusViolation(ReproError):
    """A transducer program violates the Spocus restrictions.

    The offending construct is named in the message: recursive output
    rules, non-cumulative state rules, projections in state rules, and
    so on (Definition in Section 3.1 of the paper).
    """


class ParseError(ReproError):
    """A textual program or formula could not be parsed."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EvaluationError(ReproError):
    """Evaluation of a datalog program or algebra expression failed."""


class PlanError(EvaluationError):
    """A query plan was requested outside its supported scope.

    Subclasses :class:`EvaluationError` so existing handlers around the
    evaluator keep working when planning is what actually failed.
    """


class SolverError(ReproError):
    """The SAT/BSR solver was given unsupported input."""


class NotInPrefixClassError(SolverError):
    """A sentence is outside the Bernays-Schoenfinkel class after prenexing."""


class VerificationError(ReproError):
    """A verification procedure was applied outside its decidable scope."""


class SpecError(VerificationError):
    """A property specification is malformed or used outside its mode.

    Raised by :mod:`repro.verify.api` when a :class:`PropertySpec` is
    built from the wrong pieces (e.g. a non-T_past-input formula) or
    checked in a mode it does not support (e.g. an offline
    ``LogValidity`` check without a log).
    """


class AuditViolation(VerificationError):
    """A live pod violated an attached property specification.

    Raised by a strict :class:`~repro.verify.api.OnlineAuditor` from
    inside :meth:`~repro.pods.service.PodService.submit` *after* the
    step has been applied and persisted; ``findings`` carries the
    :class:`~repro.verify.api.AuditFinding` objects of the violating
    step, each with a replayable counterexample trace.

    When the violation surfaced inside ``submit_batch``,
    ``partial_results`` is a tuple aligned with the batch's requests:
    the :class:`~repro.pods.api.StepResult` of every request that
    completed, ``None`` elsewhere.  Its contract, which every surface
    meets, is stated on :meth:`~repro.pods.service._PodApi.submit_batch`:
    the violating request is ``None`` even though its step *was*
    applied and persisted, no later request of that session ran, and
    other sessions' requests may or may not have run -- callers
    reconcile the ``None`` slots against the session store.  ``None``
    (the default) means the violation did not come from a batch.
    """

    def __init__(
        self,
        message: str,
        findings: tuple = (),
        partial_results: "tuple | None" = None,
    ) -> None:
        super().__init__(message)
        self.findings = tuple(findings)
        self.partial_results = (
            tuple(partial_results) if partial_results is not None else None
        )


class ShadowDivergence(VerificationError):
    """A shadowed candidate service diverged from its incumbent.

    Raised by a fail-closed :class:`~repro.shadow.ShadowService` the
    moment a mirrored step's comparison fails (or the candidate errors);
    ``report`` carries the :class:`~repro.shadow.DivergenceReport`,
    including the replayable trace and the first-divergent-step
    localization.  Fail-open policies record the report and keep
    serving instead of raising.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class UndecidableError(VerificationError):
    """The exact question posed is undecidable in general.

    The library raises this instead of silently running a semi-decision
    procedure, unless the caller explicitly opts into a bounded search.
    """


class ChaseNonterminationError(ReproError):
    """The chase exceeded its step budget without reaching a fixpoint."""
