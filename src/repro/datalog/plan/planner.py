"""Join-order selection and plan compilation.

Two ordering strategies:

* :func:`greedy_order` -- the selectivity heuristic the evaluator has
  always used: most bound terms first, smaller relation breaking ties,
  then body order.  It needs nothing but relation counts, so it is the
  fallback whenever index statistics are absent (no store in hand yet,
  or an empty one).
* :func:`cost_order` -- cost-based over the
  :class:`~repro.datalog.plan.cost.CostModel` estimates: at each step
  place the atom expected to enumerate the fewest rows given what is
  already bound, using the per-index bucket counts of the live
  :class:`~repro.relalg.indexes.FactStore`.  Ties (and the bound-term
  structure) fall back to the greedy score, keeping orders
  deterministic.  ``ordering="greedy"`` bypasses the cost model
  entirely.

:func:`compile_program` is the module-level compilation cache: one
:class:`~repro.datalog.plan.physical.PhysicalPlan` per (program,
ordering), shared by every session of every service in the process.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.errors import PlanError
from repro.datalog.ast import Program, Variable
from repro.datalog.plan.cost import CostModel
from repro.datalog.plan.logical import AtomNode, LogicalPlan

if TYPE_CHECKING:
    from repro.datalog.plan.physical import IncrementalExecutor, PhysicalPlan
    from repro.relalg.indexes import FactStore

ORDERING_COST = "cost"
ORDERING_GREEDY = "greedy"
ORDERINGS = (ORDERING_COST, ORDERING_GREEDY)


def greedy_order(
    positive: Sequence[AtomNode],
    store: "FactStore | None" = None,
    first: AtomNode | None = None,
) -> list[AtomNode]:
    """Greedy selectivity ordering of the positive body atoms.

    At each step pick the atom with the most terms already bound
    (constants plus variables bound by earlier atoms); ties go to the
    atom over the smaller relation, then to body order, which keeps the
    ordering deterministic.  Without a store the size tiebreak is
    skipped (static ordering).
    """
    remaining = list(positive)
    order: list[AtomNode] = []
    bound: set[Variable] = set()
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound.update(first.variables)
    while remaining:
        best_index = 0
        best_score: tuple[int, int] | None = None
        for i, info in enumerate(remaining):
            bound_terms = info.constant_count + sum(
                1 for v in info.variables if v in bound
            )
            size = store.count(info.atom.predicate) if store is not None else 0
            score = (-bound_terms, size)
            if best_score is None or score < best_score:
                best_score = score
                best_index = i
        chosen = remaining.pop(best_index)
        order.append(chosen)
        bound.update(chosen.variables)
    return order


def cost_order(
    positive: Sequence[AtomNode],
    store: "FactStore",
    model: CostModel | None = None,
    first: AtomNode | None = None,
) -> list[AtomNode]:
    """Cost-based ordering: cheapest estimated enumeration next.

    The primary key is the cost model's row estimate; the greedy
    (bound-terms, size, body-order) score breaks exact ties so the
    order degrades gracefully to the greedy one when statistics cannot
    discriminate (e.g. every candidate is an unindexed scan of the same
    size).
    """
    if model is None:
        model = CostModel(store)
    remaining = list(positive)
    order: list[AtomNode] = []
    bound: set[Variable] = set()
    if first is not None:
        remaining.remove(first)
        order.append(first)
        bound.update(first.variables)
    while remaining:
        best_index = 0
        best_score: tuple[float, int, int] | None = None
        for i, info in enumerate(remaining):
            bound_terms = info.constant_count + sum(
                1 for v in info.variables if v in bound
            )
            score = (
                model.estimate(info, bound),
                -bound_terms,
                store.count(info.atom.predicate),
            )
            if best_score is None or score < best_score:
                best_score = score
                best_index = i
        chosen = remaining.pop(best_index)
        order.append(chosen)
        bound.update(chosen.variables)
    return order


class Planner:
    """Compiles programs into physical plans under one ordering policy."""

    __slots__ = ("ordering",)

    def __init__(self, ordering: str = ORDERING_COST) -> None:
        if ordering not in ORDERINGS:
            raise PlanError(
                f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
            )
        self.ordering = ordering

    def plan(self, program: "Program | LogicalPlan") -> "PhysicalPlan":
        """The physical plan of ``program`` under this planner's policy."""
        from repro.datalog.plan.physical import PhysicalPlan

        if isinstance(program, LogicalPlan):
            logical = program
        else:
            logical = LogicalPlan.of(program)
        return PhysicalPlan(logical, self.ordering)


# -- process-wide compilation cache -------------------------------------------

_plan_cache: dict[tuple[Program, str], "PhysicalPlan"] = {}
_PLAN_CACHE_LIMIT = 1024
_cache_info = {"compiled": 0, "hits": 0}
# The cache is process-wide and sessions may be created from caller
# threads (each thread's submit restores sessions lazily), so every
# lookup-or-compile is serialized: one (program, ordering) pair is
# compiled exactly once no matter how many threads race on first touch,
# and the compiled/hits counters stay exact.
_plan_cache_lock = threading.Lock()


def compile_cached(
    program: Program, ordering: str = ORDERING_COST
) -> tuple["PhysicalPlan", bool]:
    """``(plan, was_cache_hit)`` for one (program, ordering) pair."""
    key = (program, ordering)
    with _plan_cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _cache_info["hits"] += 1
            return plan, True
        if len(_plan_cache) >= _PLAN_CACHE_LIMIT:
            _plan_cache.clear()
        plan = Planner(ordering).plan(program)
        _plan_cache[key] = plan
        _cache_info["compiled"] += 1
        return plan, False


def compile_program(
    program: Program, ordering: str = ORDERING_COST
) -> "PhysicalPlan":
    """The shared compiled plan of ``program`` (cached per ordering)."""
    plan, _hit = compile_cached(program, ordering)
    return plan


def incremental_executor_for(
    program: Program,
    *,
    volatile: "Sequence[str] | frozenset[str]",
    monotone: "Sequence[str] | frozenset[str]",
    ordering: str = ORDERING_COST,
) -> "IncrementalExecutor | None":
    """A delta-capable executor over the shared cached plan, or ``None``.

    The one-stop compilation path for cross-step incremental stepping:
    compiles (or reuses) the process-wide plan for ``program``, attempts
    to build an :class:`~repro.datalog.plan.physical.IncrementalExecutor`
    with the given volatile/monotone predicate classification, and
    charges the compile-vs-hit outcome to the executor's counters.
    Programs outside the incremental scope (non-flat) return ``None`` so
    callers can fall back to full per-step evaluation.  Used both by the
    transducer runtime (per-session output stepping) and by the
    verification monitors of :mod:`repro.verify.api` (delta-checkable
    property programs).
    """
    plan, hit = compile_cached(program, ordering)
    try:
        executor = plan.new_incremental(volatile=volatile, monotone=monotone)
    except PlanError:
        return None
    if hit:
        executor.counters.plan_cache_hits += 1
    else:
        executor.counters.plans_compiled += 1
    return executor


def plan_cache_info() -> dict[str, int]:
    """Process-wide compilation counters (plans compiled / cache hits)."""
    with _plan_cache_lock:
        return {
            "compiled": _cache_info["compiled"],
            "hits": _cache_info["hits"],
            "size": len(_plan_cache),
        }


def clear_plan_cache() -> None:
    """Drop all compiled plans (tests and benchmarks)."""
    with _plan_cache_lock:
        _plan_cache.clear()
