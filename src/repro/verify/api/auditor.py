"""Online auditing: property specs attached to live pods.

An :class:`OnlineAuditor` carries a set of :class:`PropertySpec`
objects into a :class:`~repro.pods.service.PodService`: the service
calls :meth:`observe_step` from inside ``submit()`` after every applied
step, each session gets its own compiled monitor set (shared physical
plans, per-session incremental executors -- the same sharing shape as
the runtime's own evaluation), and violations become
:class:`AuditFinding` records whose traces replay the audited session's
own observed inputs through a fresh service to reproduce the violating
log.

``reference`` is the specification model log-validity and reachability
audits are decided against; by default it is the serving transducer
itself (then a produced log can never be invalid and the audit checks
input disciplines / temporal invariants), and pointing it at a
different model is exactly the paper's audit scenario -- a deployed
implementation checked, step by step, against the transducer the
business rules were verified on.

In ``strict`` mode the owning service raises
:class:`~repro.errors.AuditViolation` after recording a violating step;
otherwise findings accumulate for later inspection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.run import log_of_step
from repro.datalog.plan import EvalCounters
from repro.errors import SpecError
from repro.verify.api.monitor import StageView, StepMonitor, build_monitor
from repro.verify.api.specs import PropertySpec
from repro.verify.api.trace import KIND_COUNTEREXAMPLE, CounterexampleTrace

if TYPE_CHECKING:
    from repro.core.transducer import RelationalTransducer
    from repro.relalg.instance import Instance


@dataclass(frozen=True)
class AuditFinding:
    """One violation observed on one step of one audited session."""

    session_id: str
    step: int
    spec: PropertySpec = field(compare=False)
    violation: str = ""
    trace: CounterexampleTrace | None = field(default=None, compare=False)


@dataclass
class AuditOutcome:
    """What one audited step produced (consumed by RuntimeMetrics).

    ``bsr_decisions`` counts the BSR sentences the step's monitors
    decided -- the fallback of witness-first log validation, and every
    goal-reachability check.
    """

    findings: tuple[AuditFinding, ...] = ()
    checks: int = 0
    eval_delta: EvalCounters = field(default_factory=EvalCounters)
    bsr_decisions: int = 0


class _SessionAudit:
    """Per-session monitor set plus the observed history for traces."""

    __slots__ = ("monitors", "inputs", "log", "resume_steps", "resume_state",
                 "counters_seen", "bsr_seen", "needs_history", "seed_inputs")

    def __init__(
        self,
        monitors: list[StepMonitor],
        resume_steps: int,
        resume_state,
        seed_inputs: tuple = (),
    ) -> None:
        self.monitors = monitors
        self.inputs: list = []
        self.log: list = []
        # Resumed sessions joined mid-run: their pre-restart inputs are
        # unobservable, so traces carry the resume point (state + log
        # prefix) instead and replay by resuming from a snapshot.
        self.resume_steps = resume_steps
        self.resume_state = resume_state
        # For history-reading monitors: the pre-restart inputs,
        # reconstructed (up to union, which is all reachability needs)
        # from the cumulative Spocus state.  Not part of traces.
        self.seed_inputs = seed_inputs
        # Baseline for per-step counter deltas.  Starting from zero
        # (not from a first-observe snapshot) charges the monitors'
        # build-time plan compiles/cache hits to the first audited step.
        self.counters_seen = EvalCounters()
        self.bsr_seen = 0
        # The O(step) so-far tuples are only materialized for monitors
        # that actually read history (log/reachability audits).
        self.needs_history = any(m.needs_history for m in monitors)


class OnlineAuditor:
    """Attach property specs to a pod service; check every step.

    Construct with the specs, pass as ``PodService(...,
    auditor=auditor)``; the service binds it to its transducer and
    database and drives it.  One auditor belongs to one service (a
    :class:`~repro.server.frontend.PodServer` takes an
    ``auditor_factory`` and gives every worker its own).
    """

    def __init__(
        self,
        specs: Iterable[PropertySpec],
        *,
        reference: "RelationalTransducer | None" = None,
        strict: bool = False,
        ledger=None,
    ) -> None:
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, PropertySpec):
                raise SpecError(
                    f"OnlineAuditor takes PropertySpecs, got "
                    f"{type(spec).__name__}"
                )
        self.reference = reference
        self.strict = strict
        self._transducer: "RelationalTransducer | None" = None
        self._database: "Instance | None" = None
        self._database_facts: dict | None = None
        self._sessions: dict[str, _SessionAudit] = {}
        self._findings: list[AuditFinding] = []
        # Guards the cross-session shared pieces (_sessions, _findings):
        # observe_step calls arrive concurrently from caller threads
        # that submit to distinct sessions -- one session per thread, so
        # each _SessionAudit stays single-threaded, but registration and the
        # findings ledger are shared and must not lose entries.
        self._lock = threading.Lock()
        # Optional persistent violations ledger: every finding is also
        # written through the SessionStore seam, and findings recorded
        # by a previous process over the same store are rehydrated here
        # (their traces intact, their specs reduced to LedgerSpec name
        # placeholders).
        if ledger is None:
            self._ledger = None
        else:
            from repro.shadow.ledger import AuditLedger

            self._ledger = (
                ledger if isinstance(ledger, AuditLedger) else AuditLedger(ledger)
            )
            self._findings.extend(
                record
                for record in self._ledger.all_records()
                if isinstance(record, AuditFinding)
            )

    # -- lifecycle (driven by the owning service) ------------------------------

    @property
    def bound(self) -> bool:
        return self._transducer is not None

    def bind(self, transducer, database: "Instance") -> None:
        """Called by the owning service; one auditor per service."""
        if self._transducer is not None and (
            self._transducer is not transducer or self._database is not database
        ):
            raise SpecError(
                "OnlineAuditor is already bound to a different service; "
                "construct one auditor per service"
            )
        from repro.verify.api.trace import facts_of_instance

        self._transducer = transducer
        self._database = database
        # One shared facts view, referenced by every finding's trace so
        # traces stay self-contained without copying the catalog.
        self._database_facts = facts_of_instance(database)
        # Fail fast on specs the serving schema cannot support.
        for spec in self.specs:
            build_monitor(
                spec, transducer, database, reference=self.reference
            )

    def is_registered(self, session_id: str) -> bool:
        """Whether a session is currently under audit.

        Registration survives hot-session eviction: the service's LRU
        cache drops only the in-memory :class:`Session` object, and the
        audit state lives here, keyed by id.  Only
        :meth:`forget_session` (session closed) ends an audit, so a
        rehydrated session keeps its monitors, history, and findings.
        """
        with self._lock:
            return session_id in self._sessions

    def register_session(
        self,
        session_id: str,
        *,
        steps: int = 0,
        log: Sequence = (),
        state=None,
    ) -> bool:
        """Start auditing a session (fresh, or resumed at ``steps``).

        For a resumed session the service supplies the restored step
        count, log, and cumulative ``state``: the log keeps feeding
        log-shaped audits, and the (steps, state, log) triple becomes
        the resume point of any finding's trace, so replays resume from
        a snapshot exactly as the service did.  A session resumed
        *without* its full log (recorded with ``keep_logs=False``)
        cannot yield replayable evidence for *any* spec -- the trace's
        resume prefix would be missing -- so that raises here instead
        of crashing (or producing non-reproducing traces) at the first
        violation.

        Registering an already-registered session is a no-op returning
        ``False`` (the existing audit, with its accumulated history,
        wins); ``True`` means this call started the audit.  The no-op
        path is what lets a service rehydrate an evicted session
        without resetting its audit mid-run.
        """
        if self._transducer is None or self._database is None:
            raise SpecError("OnlineAuditor.bind() must run before sessions")
        with self._lock:
            if session_id in self._sessions:
                return False
        if steps and len(log) != steps:
            raise SpecError(
                f"cannot audit session {session_id!r}: it resumed at step "
                f"{steps} with {len(log)} stored log entries (recorded "
                "with keep_logs=False?), so findings could not carry a "
                "replayable trace"
            )
        monitors = [
            build_monitor(
                spec, self._transducer, self._database,
                reference=self.reference,
            )
            for spec in self.specs
        ]
        seed_inputs: tuple = ()
        if steps and state is not None:
            # Spocus state is exactly the union of past inputs, so the
            # pre-restart input history is recoverable (up to union --
            # which is all that accumulated-prefix checks like goal
            # reachability read) as one synthetic input instance.
            synthetic = _inputs_from_state(self._transducer, state)
            if synthetic is not None:
                seed_inputs = (synthetic,)
            elif any(m.needs_history for m in monitors):
                raise SpecError(
                    f"cannot audit session {session_id!r}: it resumed "
                    "mid-run and the transducer's state does not "
                    "determine its past inputs, so history-reading "
                    "specs would silently miss pre-restart violations"
                )
        audit = _SessionAudit(
            monitors,
            resume_steps=steps,
            resume_state=state,
            seed_inputs=seed_inputs,
        )
        audit.log.extend(log)
        with self._lock:
            # setdefault so racing registrations of the same session id
            # agree on one audit object (first writer wins).
            return self._sessions.setdefault(session_id, audit) is audit

    def forget_session(self, session_id: str) -> None:
        """Stop auditing (session closed).

        Without a ledger, recorded findings are kept (the historical
        behaviour).  With one, a closed session's findings are *pruned*
        -- from memory and from the ledger -- mirroring how the session
        stores treat ``record_closed``: the ledger is the book of open
        pods' violations, and closing a pod retires its entry.
        """
        with self._lock:
            self._sessions.pop(session_id, None)
            if self._ledger is not None:
                self._findings = [
                    f for f in self._findings if f.session_id != session_id
                ]
        if self._ledger is not None:
            self._ledger.forget(session_id)

    # -- the per-step hook -----------------------------------------------------

    def observe_step(
        self,
        session_id: str,
        *,
        step: int,
        inputs: "Instance",
        output: "Instance",
        state_before: "Instance",
        state_after: "Instance",
        log_entry: "Instance | None",
    ) -> AuditOutcome:
        """Check one applied step; returns findings and counter deltas.

        Safe to call concurrently for *different* sessions (the shared
        findings ledger is locked); one session's steps must be
        observed sequentially, which the owning service guarantees by
        stepping each session on a single worker.
        """
        with self._lock:
            audit = self._sessions.get(session_id)
        if audit is None:
            return AuditOutcome()
        audit.inputs.append(inputs)
        if log_entry is None:
            # The service runs with keep_logs=False; the audit computes
            # the entry itself so log-shaped specs (and trace evidence)
            # keep working instead of silently checking nothing.
            log_entry = log_of_step(
                inputs, output, self._transducer.schema.log_schema
            )
        audit.log.append(log_entry)
        stage = StageView(
            step=step,
            inputs=inputs,
            output=output,
            state_before=state_before,
            state_after=state_after,
            log_entry=log_entry,
            inputs_so_far=(
                audit.seed_inputs + tuple(audit.inputs)
                if audit.needs_history
                else ()
            ),
            log_so_far=tuple(audit.log) if audit.needs_history else (),
            resume_steps=audit.resume_steps,
        )
        findings: list[AuditFinding] = []
        for monitor in audit.monitors:
            for violation in monitor.observe(stage):
                findings.append(
                    AuditFinding(
                        session_id=session_id,
                        step=step,
                        spec=monitor.spec,
                        violation=violation,
                        trace=self._trace_of(audit, step, violation, monitor),
                    )
                )
        current = sum(
            (m.eval_counters() for m in audit.monitors), EvalCounters()
        )
        delta = current - audit.counters_seen
        audit.counters_seen = current
        decided = sum(m.bsr_decisions for m in audit.monitors)
        bsr_delta = decided - audit.bsr_seen
        audit.bsr_seen = decided
        if findings:
            with self._lock:
                self._findings.extend(findings)
            if self._ledger is not None:
                for finding in findings:
                    self._ledger.append(finding.session_id, finding)
        return AuditOutcome(
            findings=tuple(findings),
            checks=len(audit.monitors),
            eval_delta=delta,
            bsr_decisions=bsr_delta,
        )

    def _trace_of(
        self, audit: _SessionAudit, step: int, violation: str, monitor
    ) -> CounterexampleTrace:
        """The replayable evidence for one finding.

        Inputs are the observed steps; for resumed sessions the resume
        point (pre-restart state + log prefix) rides along so the
        replay seeds a snapshot first -- the full recorded log is then
        reproduced end to end either way.  The audited database rides
        along too (shared, not copied), keeping the trace self-
        contained: ``trace.reproduces(transducer)`` works in a process
        that never saw the service.
        """
        from repro.verify.api.trace import facts_of_instance, facts_sequence

        return CounterexampleTrace(
            kind=KIND_COUNTEREXAMPLE,
            inputs=facts_sequence(audit.inputs),
            log=facts_sequence(audit.log),
            database=self._database_facts,
            step=step,
            violation=violation,
            property_name=monitor.spec.describe(),
            resume_steps=audit.resume_steps,
            resume_state=(
                facts_of_instance(audit.resume_state)
                if audit.resume_state is not None
                else None
            ),
        )

    # -- reporting -------------------------------------------------------------

    @property
    def ledger(self):
        """The attached :class:`~repro.shadow.ledger.AuditLedger`, if any."""
        return self._ledger

    def findings(self, session_id: str | None = None) -> list[AuditFinding]:
        """All recorded findings, optionally for one session."""
        with self._lock:
            recorded = list(self._findings)
        if session_id is None:
            return recorded
        return [f for f in recorded if f.session_id == session_id]

    def violation_count(self) -> int:
        with self._lock:
            return len(self._findings)


def _inputs_from_state(transducer, state):
    """One input instance carrying a cumulative state's past inputs.

    Only possible when every input relation has its Spocus ``past-R``
    state relation (the cumulative discipline); returns None otherwise.
    """
    from repro.core.spocus import past
    from repro.relalg.instance import Instance

    schema = transducer.schema
    state_names = set(state.schema.names)
    data = {}
    for rel in schema.inputs:
        history = past(rel.name)
        if history not in state_names:
            return None
        data[rel.name] = state[history]
    return Instance(schema.inputs, data)
