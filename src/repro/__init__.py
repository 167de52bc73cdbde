"""repro: relational transducers for electronic commerce.

A full reproduction of Abiteboul, Vianu, Fordham & Yesha (PODS 1998 /
JCSS 2000).  The most common entry points are re-exported here; the
subpackages hold the full API:

* :mod:`repro.core` -- the transducer model (Spocus and general);
* :mod:`repro.verify` -- the decision procedures of Sections 3-4;
* :mod:`repro.commerce` -- the paper's business models and tooling;
* :mod:`repro.automata` -- expressiveness results (Sec 3.1, Thm 4.2);
* :mod:`repro.datalog`, :mod:`repro.relalg`, :mod:`repro.logic` -- the
  substrates (rule language, relational model, BSR/SAT solving).
"""

from repro.core import RelationalTransducer, SpocusTransducer, parse_transducer
from repro.verify import (
    AllOf,
    AnyOf,
    ErrorFreeness,
    Goal,
    GoalReachability,
    LogValidity,
    OnlineAuditor,
    PropertySpec,
    TemporalProperty,
    Verdict,
    Verifier,
)

__version__ = "1.1.0"

__all__ = [
    "RelationalTransducer",
    "SpocusTransducer",
    "parse_transducer",
    "Goal",
    # typed verification surface (PR 4)
    "PropertySpec",
    "LogValidity",
    "GoalReachability",
    "TemporalProperty",
    "ErrorFreeness",
    "AllOf",
    "AnyOf",
    "Verifier",
    "Verdict",
    "OnlineAuditor",
    "__version__",
]
