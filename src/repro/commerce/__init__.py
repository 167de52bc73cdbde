"""Electronic-commerce business models and tooling.

The application layer the paper motivates: the ``short`` and
``friendly`` transducers of Section 2.1 (verbatim rules), further
business models built in the same style, the customization toolkit of
Section 3.3, log minimization (Section 2.1), the progress advisor, and
workload generators for the benchmark harness.
"""

from repro.commerce.models import (
    FIGURE1_INPUTS,
    FIGURE2_INPUTS,
    build_buggy_store,
    build_friendly,
    build_guarded_store,
    build_short,
    default_database,
)
from repro.commerce.catalog import CatalogGenerator
from repro.commerce.customization import (
    CustomizationReport,
    is_syntactically_safe_customization,
    new_relations_reaching_log,
)
from repro.commerce.minimize import minimal_logs, removable_log_relations
from repro.commerce.progress import ProgressAdvisor, Suggestion
from repro.commerce.workloads import SessionGenerator, random_log

__all__ = [
    "build_short",
    "build_friendly",
    "build_buggy_store",
    "build_guarded_store",
    "default_database",
    "FIGURE1_INPUTS",
    "FIGURE2_INPUTS",
    "CatalogGenerator",
    "CustomizationReport",
    "is_syntactically_safe_customization",
    "new_relations_reaching_log",
    "removable_log_relations",
    "minimal_logs",
    "ProgressAdvisor",
    "Suggestion",
    "SessionGenerator",
    "random_log",
]
