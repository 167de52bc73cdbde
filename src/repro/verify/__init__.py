"""Verification of relational transducers.

Every decidable question in the paper reduces to finite satisfiability
of a Bernays-Schoenfinkel sentence over a schema that replicates the
input relations once per run step.  :mod:`repro.verify.encoder` holds
that shared reduction; since PR 4 the public surface is the typed
:mod:`repro.verify.api` (``PropertySpec`` -> ``Verifier`` ->
``Verdict`` with replayable ``CounterexampleTrace`` evidence, plus the
``OnlineAuditor`` for live pods), and the sibling modules are its
engine backends:

* :mod:`repro.verify.logvalidity` -- Theorem 3.1 (log validation);
* :mod:`repro.verify.reachability` -- Theorem 3.2 (goal reachability
  and the partial-run variant / progress);
* :mod:`repro.verify.temporal` -- Theorem 3.3 (T_past-input properties);
* :mod:`repro.verify.containment` -- Theorem 3.5 and Corollary 3.6
  (customization containment and equivalence);
* :mod:`repro.verify.errorfree` -- Theorems 4.4 and 4.6 (properties and
  containment of error-free runs);
* :mod:`repro.verify.tsdi` -- Theorem 4.1 (compiling Tsdi input
  disciplines into error rules);
* :mod:`repro.verify.undecidable` -- the reductions of Proposition 3.1
  and Theorem 3.4 (executable undecidability constructions).

Each backend's ``check_*`` function is the engine the
:class:`~repro.verify.api.Verifier` calls; it is exported for callers
that need the raw result types (benchmarks time these directly).
"""

from repro.verify.api import (
    AllOf,
    AnyOf,
    AuditFinding,
    CounterexampleTrace,
    ErrorFreeness,
    GoalReachability,
    LogValidity,
    OnlineAuditor,
    PropertySpec,
    TemporalProperty,
    Verdict,
    Verifier,
)
from repro.verify.encoder import RunEncoder, decode_input_sequence
from repro.verify.logvalidity import LogValidityResult, check_log_validity
from repro.verify.reachability import (
    Goal,
    ReachabilityResult,
    check_goal_reachability,
)
from repro.verify.temporal import TemporalVerdict, check_temporal_property
from repro.verify.containment import (
    ContainmentVerdict,
    check_log_containment,
    check_log_equivalence,
    check_pointwise_log_equality,
)
from repro.verify.errorfree import (
    check_error_free_containment,
    check_error_free_property,
)
from repro.verify.tsdi import TsdiConjunct, TsdiSentence, compile_tsdi, enforce_tsdi, satisfies_tsdi

__all__ = [
    # typed API (PR 4)
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
    "OnlineAuditor",
    "AuditFinding",
    # engine backends
    "check_log_validity",
    "check_goal_reachability",
    "check_temporal_property",
    "check_log_containment",
    "check_log_equivalence",
    "check_pointwise_log_equality",
    "check_error_free_property",
    "check_error_free_containment",
    # shared encoding
    "RunEncoder",
    "decode_input_sequence",
    # engine result types
    "LogValidityResult",
    "Goal",
    "ReachabilityResult",
    "TemporalVerdict",
    "ContainmentVerdict",
    # Tsdi input disciplines
    "TsdiConjunct",
    "TsdiSentence",
    "compile_tsdi",
    "enforce_tsdi",
    "satisfies_tsdi",
]
