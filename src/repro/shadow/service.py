"""ShadowService: mirror live traffic to a candidate and diff the runs.

The paper's verification questions -- is candidate T₂'s log contained
in incumbent T₁'s, are they log-equivalent? -- are decidable *offline*
only for restricted classes.  A shadow deploy answers the online
complement: fan every production request to both services, compute each
side's log entry ``(I_i ∪ O_i)|log`` for the step, and diff them under
a :class:`~repro.shadow.policy.ComparisonPolicy`.  No false positives
are possible (a reported divergence carries a replayable
counterexample); completeness is bounded by the traffic actually seen
-- exactly the cheap-check-first, replay-to-confirm escalation the
abstraction-refinement tradition prescribes.

A :class:`ShadowService` *is* a pod service: it subclasses the
:class:`~repro.pods.service._PodApi` traffic mixin, so ``submit_batch``,
``run_session``, ``create_sessions`` and ``drive`` work unchanged, and
it can be dropped anywhere a :class:`~repro.pods.service.PodService`
goes -- including ``run_scenario``.  The incumbent stays authoritative:
its results are what callers receive, its errors propagate untouched,
and a fail-open policy never lets candidate trouble (divergence *or*
crash) disturb serving.  Either side may be a local :class:`PodService`
or a :class:`~repro.server.client.PodClient` speaking HTTP to a remote
pod server.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.run import log_of_step
from repro.errors import SessionError, ShadowDivergence, SpecError
from repro.pods.api import (
    SessionHandle,
    StepRequest,
    StepResult,
    facts_of,
    session_id_of,
)
from repro.pods.service import _PodApi
from repro.shadow.policy import CONTAINMENT, STRICT, ComparisonPolicy
from repro.shadow.report import (
    KIND_CANDIDATE_ERROR,
    KIND_LOG_DIVERGENCE,
    KIND_OUTPUT_MISMATCH,
    KIND_STEP_COUNTER,
    DivergenceReport,
)
from repro.verify.api.trace import KIND_COUNTEREXAMPLE, CounterexampleTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transducer import RelationalTransducer
    from repro.pods.api import Facts
    from repro.relalg.instance import Instance
    from repro.relalg.schema import DatabaseSchema
    from repro.shadow.ledger import AuditLedger
    from repro.verify.containment import ContainmentVerdict

__all__ = ["ShadowService"]


class _ShadowSession:
    """Per-session mirror state: the incumbent's recorded prefix, which
    a divergence's replay trace carries."""

    __slots__ = ("inputs", "incumbent_log", "detached")

    def __init__(self) -> None:
        self.inputs: "list[Facts]" = []
        self.incumbent_log: "list[Facts]" = []
        self.detached = False


def _entry_diverges(incumbent: "Facts", candidate: "Facts", mode: str) -> bool:
    """Whether one step's log entries diverge under ``mode``."""
    if mode == CONTAINMENT:
        names = set(incumbent) | set(candidate)
        return any(
            not candidate.get(name, frozenset())
            <= incumbent.get(name, frozenset())
            for name in names
        )
    return incumbent != candidate


def _log_entry(
    inputs: "Instance", result: StepResult, log_schema: "DatabaseSchema"
) -> "Facts":
    """One side's log entry for a step: the serving session's, rebuilt
    only when the result has none (a remote or log-less service) or it
    is phrased in another log schema than ``log_schema``."""
    entry = result.log_entry
    if entry is None or entry.schema != log_schema:
        entry = log_of_step(inputs, result.output, log_schema)
    return facts_of(entry)


def _nonempty(facts: "Facts") -> "dict[str, frozenset[tuple]]":
    """Drop empty relations: what a step actually *said*.

    Incumbent and candidate may have different output schemas (FRIENDLY
    adds warning relations to SHORT's); an extra relation that stayed
    empty is not a behavioural difference, a non-empty one is.
    """
    return {name: rows for name, rows in facts.items() if rows}


class ShadowService(_PodApi):
    """Serve from the incumbent while mirroring every step to a candidate.

    ``transducer`` defaults to the incumbent's (both local services and
    :class:`~repro.server.client.PodClient` carry one); it supplies the
    input/log schemas the comparison and the replay traces are phrased
    in.  ``database`` (facts for traces; defaults to the incumbent's
    when it exposes one) makes reported traces self-contained --
    ``trace.replay()`` with no arguments re-runs the divergence.
    ``ledger`` (anything :class:`~repro.shadow.ledger.AuditLedger`
    accepts as a store) persists every divergence; reports recorded by
    a previous process over the same store are rehydrated into
    :meth:`divergences` at construction.
    """

    def __init__(
        self,
        incumbent,
        candidate,
        *,
        policy: "ComparisonPolicy | None" = None,
        transducer: "RelationalTransducer | None" = None,
        database=None,
        ledger: "AuditLedger | str | None" = None,
    ) -> None:
        self.incumbent = incumbent
        self.candidate = candidate
        self.policy = policy if policy is not None else ComparisonPolicy()
        if transducer is None:
            transducer = getattr(incumbent, "_transducer", None)
        if transducer is None:
            raise SpecError(
                "the incumbent carries no transducer; pass transducer= "
                "so the shadow can phrase comparisons and traces"
            )
        self._transducer = transducer
        if database is None:
            database = getattr(incumbent, "database", None)
        self._database_facts = (
            facts_of(database) if database is not None else None
        )
        self._lock = threading.Lock()
        self._sessions: dict[str, _ShadowSession] = {}
        self._divergences: list[DivergenceReport] = []
        self._ledger: "AuditLedger | None"
        if ledger is None:
            self._ledger = None
        else:
            from repro.shadow.ledger import AuditLedger

            self._ledger = (
                ledger if isinstance(ledger, AuditLedger) else AuditLedger(ledger)
            )
            # Reports persisted by a previous process over this store.
            self._divergences.extend(
                record
                for record in self._ledger.all_records()
                if isinstance(record, DivergenceReport)
            )

    # -- session lifecycle (mirrored) ------------------------------------------

    @property
    def database(self):
        return getattr(self.incumbent, "database", None)

    def create_session(self, session_id: str | None = None) -> SessionHandle:
        """Open the session on both sides; the incumbent's handle wins.

        When the id is service-generated, the incumbent picks it and the
        candidate follows, so the two runs share session names.
        """
        handle = self.incumbent.create_session(session_id)
        shadow = _ShadowSession()
        try:
            self.candidate.create_session(handle.session_id)
        except Exception as error:  # noqa: BLE001 - candidate faults contained
            shadow.detached = True
            self._record(
                DivergenceReport(
                    session_id=handle.session_id,
                    step=0,
                    kind=KIND_CANDIDATE_ERROR,
                    detail=f"create_session failed: {error}",
                    policy=self.policy.mode,
                )
            )
        with self._lock:
            self._sessions[handle.session_id] = shadow
        return handle

    def session(self, session: "SessionHandle | str"):
        return self.incumbent.session(session)

    def has_session(self, session: "SessionHandle | str") -> bool:
        return self.incumbent.has_session(session)

    def session_ids(self) -> list[str]:
        return self.incumbent.session_ids()

    def close_session(self, session: "SessionHandle | str"):
        session_id = session_id_of(session)
        log = self.incumbent.close_session(session_id)
        with self._lock:
            shadow = self._sessions.pop(session_id, None)
        if shadow is not None:
            # Even a detached session may exist on the candidate side
            # (detachment stops mirroring, not the candidate's session).
            try:
                self.candidate.close_session(session_id)
            except Exception:  # noqa: BLE001 - already retired on our side
                pass
        # Divergences are kept: closing a session retires its state, not
        # the evidence it produced.
        return log

    def snapshot(self, session: "SessionHandle | str"):
        """The incumbent's view of the session (it is authoritative)."""
        snapshot = getattr(self.incumbent, "snapshot", None)
        if snapshot is not None:
            return snapshot(session)
        raise SessionError(
            f"{type(self.incumbent).__name__} does not expose snapshots"
        )

    def close(self) -> None:
        self.incumbent.close()
        try:
            self.candidate.close()
        except Exception:  # noqa: BLE001 - candidate faults contained
            pass
        if self._ledger is not None:
            self._ledger.close()

    def logs(self):
        return self.incumbent.logs()

    @property
    def metrics(self):
        return self.incumbent.metrics

    def audit_findings(self, session: "SessionHandle | str | None" = None):
        return self.incumbent.audit_findings(session)

    # -- divergences -----------------------------------------------------------

    @property
    def ledger(self) -> "AuditLedger | None":
        return self._ledger

    def divergences(
        self, session_id: "str | None" = None
    ) -> list[DivergenceReport]:
        """Recorded divergence reports, in detection order."""
        with self._lock:
            if session_id is None:
                return list(self._divergences)
            return [
                report
                for report in self._divergences
                if report.session_id == session_id
            ]

    def divergence_count(self) -> int:
        with self._lock:
            return len(self._divergences)

    def first_divergence(self) -> "DivergenceReport | None":
        with self._lock:
            return self._divergences[0] if self._divergences else None

    def _record(self, report: DivergenceReport) -> None:
        with self._lock:
            self._divergences.append(report)
        if self._ledger is not None:
            self._ledger.append(report.session_id, report)
        if self.policy.fail_closed:
            raise ShadowDivergence(
                f"session {report.session_id!r} step {report.step}: "
                f"{report.kind}"
                + (f" ({report.detail})" if report.detail else ""),
                report=report,
            )

    def containment_verdict(self) -> "ContainmentVerdict | None":
        """The *offline* answer next to the online one, when decidable.

        When both sides expose their transducers (local services do;
        remote clients carry the schema-bearing one the caller gave
        them), decide pointwise log equality of candidate against
        incumbent over the shared database with the Theorem 3.5
        machinery -- the static claim the per-step diffs are sampling.
        Returns ``None`` when either transducer is unavailable.
        """
        from repro.verify.containment import check_pointwise_log_equality

        incumbent_t = getattr(self.incumbent, "_transducer", None)
        candidate_t = getattr(self.candidate, "_transducer", None)
        if incumbent_t is None or candidate_t is None:
            return None
        return check_pointwise_log_equality(
            incumbent_t, candidate_t, self._database_facts
        )

    # -- traffic ---------------------------------------------------------------

    def submit(self, request: StepRequest) -> StepResult:
        """Serve from the incumbent, mirror to the candidate, diff.

        The incumbent goes first and its result is returned unchanged;
        a session the shadow has not seen (created directly on the
        incumbent, or resumed from its store) passes through unmirrored.
        Every mirrored step is compared, so a divergence is reported on
        the step where the two runs fork.
        """
        result = self.incumbent.submit(request)
        session_id = result.session.session_id
        with self._lock:
            shadow = self._sessions.get(session_id)
        if shadow is None or shadow.detached:
            return result
        log_schema = self._transducer.schema.log_schema
        inputs_instance = self._transducer.coerce_input(request.inputs)
        incumbent_entry = _log_entry(inputs_instance, result, log_schema)
        shadow.inputs.append(facts_of(inputs_instance))
        shadow.incumbent_log.append(incumbent_entry)
        try:
            mirrored = self.candidate.submit(
                StepRequest(session_id, request.inputs)
            )
        except Exception as error:  # noqa: BLE001 - candidate faults contained
            shadow.detached = True
            self._record(
                self._report(
                    shadow,
                    session_id,
                    result.step,
                    KIND_CANDIDATE_ERROR,
                    f"candidate submit failed: {error}",
                    incumbent_entry,
                    {},
                )
            )
            return result
        candidate_entry = _log_entry(inputs_instance, mirrored, log_schema)
        report = self._diff(
            shadow, session_id, result, mirrored, incumbent_entry,
            candidate_entry,
        )
        if report is not None:
            shadow.detached = True
            self._record(report)
        return result

    def _diff(
        self,
        shadow: _ShadowSession,
        session_id: str,
        result: StepResult,
        mirrored: StepResult,
        incumbent_entry: "Facts",
        candidate_entry: "Facts",
    ) -> "DivergenceReport | None":
        """Compare one checked step; None when the sides agree."""
        mode = self.policy.mode
        if _entry_diverges(incumbent_entry, candidate_entry, mode):
            return self._report(
                shadow,
                session_id,
                result.step,
                KIND_LOG_DIVERGENCE,
                f"log entries diverge under {mode} comparison",
                incumbent_entry,
                candidate_entry,
            )
        if mode == STRICT and _nonempty(facts_of(result.output)) != _nonempty(
            facts_of(mirrored.output)
        ):
            return self._report(
                shadow,
                session_id,
                result.step,
                KIND_OUTPUT_MISMATCH,
                "log entries agree but full output instances differ",
                incumbent_entry,
                candidate_entry,
            )
        if mirrored.step != result.step:
            return self._report(
                shadow,
                session_id,
                result.step,
                KIND_STEP_COUNTER,
                f"candidate step counter {mirrored.step} != "
                f"incumbent {result.step}",
                incumbent_entry,
                candidate_entry,
            )
        return None

    def _report(
        self,
        shadow: _ShadowSession,
        session_id: str,
        step: int,
        kind: str,
        detail: str,
        incumbent_entry: "Facts",
        candidate_entry: "Facts",
    ) -> DivergenceReport:
        return DivergenceReport(
            session_id=session_id,
            step=step,
            kind=kind,
            detail=detail,
            incumbent=incumbent_entry,
            candidate=candidate_entry,
            policy=self.policy.mode,
            trace=CounterexampleTrace(
                kind=KIND_COUNTEREXAMPLE,
                inputs=tuple(shadow.inputs),
                log=tuple(shadow.incumbent_log),
                database=self._database_facts,
                step=step,
                violation=detail,
                property_name=f"shadow-{self.policy.mode}",
            ),
        )
