"""The query-plan API of the datalog layer.

The evaluation pipeline is explicit and typed:

``Program`` -> :class:`LogicalPlan` (stratification + per-rule body
analysis) -> :class:`Planner` (join ordering: cost-based over
:class:`~repro.relalg.indexes.FactStore` index statistics, greedy
fallback) -> :class:`PhysicalPlan` (``execute`` / ``execute_delta`` /
``explain``; every body runs as a compiled kernel, see
:mod:`repro.datalog.plan.kernels`) -> optionally an
:class:`IncrementalExecutor` for cross-step delta evaluation of flat
programs over monotone facts.

:func:`compile_program` is the process-wide compilation cache the thin
wrappers in :mod:`repro.datalog.evaluate` and the transducer runtime
share.
"""

from repro.datalog.plan.cost import CostModel, bound_positions
from repro.datalog.plan.logical import AtomNode, LogicalPlan, RuleNode
from repro.datalog.plan.planner import (
    ORDERING_COST,
    ORDERING_GREEDY,
    ORDERINGS,
    Planner,
    clear_plan_cache,
    compile_cached,
    compile_program,
    cost_order,
    greedy_order,
    incremental_executor_for,
    plan_cache_info,
)
from repro.datalog.plan.kernels import Kernel, compile_kernel
from repro.datalog.plan.physical import (
    CATEGORY_DELTA,
    CATEGORY_RECOMPUTE,
    CATEGORY_STATIC,
    CompiledRule,
    EvalCounters,
    IncrementalExecutor,
    PhysicalPlan,
    derive_rule,
    kernels_compiled,
)

__all__ = [
    "AtomNode",
    "LogicalPlan",
    "RuleNode",
    "CostModel",
    "bound_positions",
    "Planner",
    "ORDERING_COST",
    "ORDERING_GREEDY",
    "ORDERINGS",
    "greedy_order",
    "cost_order",
    "Kernel",
    "compile_kernel",
    "compile_program",
    "compile_cached",
    "incremental_executor_for",
    "plan_cache_info",
    "clear_plan_cache",
    "PhysicalPlan",
    "CompiledRule",
    "IncrementalExecutor",
    "EvalCounters",
    "derive_rule",
    "kernels_compiled",
    "CATEGORY_DELTA",
    "CATEGORY_RECOMPUTE",
    "CATEGORY_STATIC",
]
