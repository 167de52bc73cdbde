"""The typed verification API.

The paper's decision procedures, redesigned as one surface (PR 4 of the
ROADMAP's typed-surfaces arc, after ``PodService`` and ``QueryPlan``):

* :mod:`repro.verify.api.specs` -- the :class:`PropertySpec` hierarchy
  (:class:`LogValidity`, :class:`GoalReachability`,
  :class:`TemporalProperty`, :class:`ErrorFreeness`, plus the
  :class:`AllOf` / :class:`AnyOf` combinators);
* :mod:`repro.verify.api.verifier` -- the :class:`Verifier` facade
  compiling specs against a transducer into typed :class:`Verdict`
  objects (offline all-runs checks *and* concrete-run checks);
* :mod:`repro.verify.api.trace` -- :class:`CounterexampleTrace`:
  machine-checkable evidence that replays deterministically through a
  fresh :class:`~repro.pods.service.PodService`;
* :mod:`repro.verify.api.monitor` -- per-step monitors compiling
  property violations into delta-capable query plans;
* :mod:`repro.verify.api.auditor` -- :class:`OnlineAuditor`, attaching
  specs to live pods so every ``submit()`` is checked incrementally.
"""

from repro.verify.api.auditor import AuditFinding, AuditOutcome, OnlineAuditor
from repro.verify.api.monitor import (
    HistoryView,
    StageView,
    StepMonitor,
    build_monitor,
    compile_temporal_violation,
)
from repro.verify.api.specs import (
    AllOf,
    AnyOf,
    ErrorFreeness,
    GoalReachability,
    LogValidity,
    PropertySpec,
    TemporalProperty,
)
from repro.verify.api.trace import (
    KIND_COUNTEREXAMPLE,
    KIND_WITNESS,
    CounterexampleTrace,
    trace_from_run,
)
from repro.verify.api.verifier import Verdict, Verifier

__all__ = [
    "PropertySpec",
    "LogValidity",
    "GoalReachability",
    "TemporalProperty",
    "ErrorFreeness",
    "AllOf",
    "AnyOf",
    "Verifier",
    "Verdict",
    "CounterexampleTrace",
    "trace_from_run",
    "KIND_COUNTEREXAMPLE",
    "KIND_WITNESS",
    "OnlineAuditor",
    "AuditFinding",
    "AuditOutcome",
    "HistoryView",
    "StageView",
    "StepMonitor",
    "build_monitor",
    "compile_temporal_violation",
]
