"""Divergence reports: what a shadow comparison found, replayably.

A :class:`DivergenceReport` is the shadow subsystem's counterpart to
:class:`~repro.verify.api.AuditFinding`: one mirrored step on which the
candidate's behaviour left the incumbent's.  It records the step on
which the two runs forked (every mirrored step is compared, so that is
also where it was detected), the offending log entries from both
sides, and a replayable
:class:`~repro.verify.api.trace.CounterexampleTrace` built from the
incumbent's inputs: ``trace.reproduces(incumbent_transducer)`` holds and
``trace.reproduces(candidate_transducer)`` fails, which is the
machine-checkable statement "these two transducers are not
log-equivalent on this run" (the online face of the paper's Theorem 3.5
question).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pods.api import Facts
    from repro.verify.api.trace import CounterexampleTrace

__all__ = [
    "DivergenceReport",
    "KIND_LOG_DIVERGENCE",
    "KIND_OUTPUT_MISMATCH",
    "KIND_STEP_COUNTER",
    "KIND_CANDIDATE_ERROR",
]

#: The step's log entries differ (strict) or the candidate logged
#: something the incumbent would not (containment).
KIND_LOG_DIVERGENCE = "log-divergence"
#: Log entries agree but the full output instances do not (strict only).
KIND_OUTPUT_MISMATCH = "output-mismatch"
#: The candidate's step counter drifted from the incumbent's.
KIND_STEP_COUNTER = "step-counter"
#: The candidate raised where the incumbent served.
KIND_CANDIDATE_ERROR = "candidate-error"


@dataclass(frozen=True)
class DivergenceReport:
    """One step on which the candidate diverged from the incumbent.

    ``step`` is the first step on which the runs diverged (1-based,
    the incumbent's step counter; 0 when the candidate could not even
    open the session).  ``incumbent``/``candidate`` hold the two sides'
    log entries (plain facts) at that step.  ``trace`` is excluded
    from equality so reports compare by what diverged, not by the
    replay vehicle attached to it.
    """

    session_id: str
    step: int
    kind: str
    detail: str = ""
    incumbent: "Facts" = field(default_factory=dict)
    candidate: "Facts" = field(default_factory=dict)
    policy: str = "strict"
    trace: "CounterexampleTrace | None" = field(default=None, compare=False)

    def as_dict(self) -> dict:
        """A JSON-ready summary (facts elided; use the ledger codec
        for the full record)."""
        return {
            "session_id": self.session_id,
            "step": self.step,
            "kind": self.kind,
            "detail": self.detail,
            "policy": self.policy,
            "replayable": self.trace is not None,
        }
