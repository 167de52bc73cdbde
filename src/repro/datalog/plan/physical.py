"""Physical plans: executable joins, delta passes, and explain output.

A :class:`PhysicalPlan` binds a
:class:`~repro.datalog.plan.logical.LogicalPlan` to an ordering policy
and executes every rule body with its compiled kernel (see
:mod:`repro.datalog.plan.kernels`): one per-rule memo yields the join
order and the kernel for it together, and checks run as soon as their
variables are bound:

* :meth:`PhysicalPlan.execute` runs the full stratified fixpoint --
  the engine behind :func:`repro.datalog.evaluate.evaluate_program`;
* :meth:`PhysicalPlan.execute_delta` runs one semi-naive delta pass
  (each rule restricted, per positive occurrence, to the delta rows) --
  the building block of both the in-fixpoint iteration and cross-step
  incremental evaluation;
* :meth:`PhysicalPlan.explain` renders a stable, testable description
  of the join orders and check schedules the kernels run;
* :meth:`PhysicalPlan.new_incremental` returns an
  :class:`IncrementalExecutor` that steps a *flat* program (no derived
  predicate in any body -- every Spocus output program) against
  monotonically growing facts, caching per-rule results between steps
  and re-deriving only from the delta.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from dataclasses import dataclass

from repro.errors import EvaluationError, PlanError
from repro.datalog.ast import Variable
from repro.datalog.plan.cost import CostModel
from repro.datalog.plan.kernels import Kernel, compile_check, compile_kernel
from repro.datalog.plan.logical import AtomNode, LogicalPlan, RuleNode
from repro.datalog.plan.planner import (
    ORDERING_COST,
    ORDERING_GREEDY,
    ORDERINGS,
    cost_order,
    greedy_order,
)
from repro.relalg.indexes import FactStore

Facts = Mapping[str, frozenset[tuple]]


def coerce_store(facts: "Facts | FactStore") -> FactStore:
    if isinstance(facts, FactStore):
        return facts
    return FactStore(facts)


class Orderer:
    """The join-order strategy bound to one store.

    Callable as ``orderer(atoms, first)``; cost ordering needs live
    statistics, so without a store it degrades to the static greedy
    order (the documented stats-absent fallback).  The instance also
    carries the ingredients of the plan-memo key (see
    :meth:`CompiledRule.plan_for`): the policy and the store whose
    relation sizes sign the memo.
    """

    __slots__ = ("policy", "store", "model", "_sig_cache")

    def __init__(self, ordering: str, store: FactStore | None) -> None:
        self.store = store
        self._sig_cache: dict[tuple[str, ...], tuple] = {}
        if ordering == ORDERING_COST and store is not None:
            self.policy = ORDERING_COST
            self.model = CostModel(store)
        else:
            self.policy = ORDERING_GREEDY
            self.model = None

    def __call__(
        self,
        positive: Sequence[AtomNode],
        first: AtomNode | None = None,
    ) -> list[AtomNode]:
        if self.model is not None:
            return cost_order(positive, self.store, self.model, first)
        return greedy_order(positive, self.store, first)

    def signature(self, predicates: Sequence[str]) -> tuple:
        """The memo key under which this orderer's choices stay valid.

        Relation sizes enter by bit length, so a memoized order is
        reused until some body relation roughly doubles (or empties) --
        the cardinality drift at which re-planning can pay for itself.
        Signatures are cached per predicate set for this orderer's
        lifetime (one step or one execute), which is also the window in
        which its cost model would see the same statistics.
        """
        cached = self._sig_cache.get(predicates)
        if cached is not None:
            return cached
        store = self.store
        if store is None:
            sizes: tuple[int, ...] = ()
        else:
            sizes = tuple(
                store.count(pred).bit_length() for pred in predicates
            )
        signature = (self.policy, sizes)
        self._sig_cache[predicates] = signature
        return signature


_PLAN_MEMO_LIMIT = 64
_KERNEL_MEMO_LIMIT = 64

# Kernels live on the process-wide shared plans, so how many exist is a
# process-wide fact: counted here, read by kernels_compiled().
_kernel_count = 0
_kernel_count_lock = threading.Lock()


def kernels_compiled() -> int:
    """Rule kernels compiled so far in this process (a gauge)."""
    return _kernel_count


def _count_kernel() -> None:
    global _kernel_count
    with _kernel_count_lock:
        _kernel_count += 1


class CompiledRule:
    """One rule's physical state: its (order, kernel) memo and kernels.

    Compiled rules live inside the process-wide shared
    :class:`PhysicalPlan`, so concurrent sessions executing the same
    plan may race on a kernel's first use; kernels are therefore
    compiled under a lock, once per distinct order.  The (hot) memo is
    lock-free and racy-but-benign: every thread computes the same
    deterministic order for a given key and gets the one kernel for it,
    so a lost publish only costs a recomputation.
    """

    __slots__ = ("node", "pre_checks", "_order_preds", "_plans", "_kernels",
                 "_kernel_lock")

    def __init__(self, node: RuleNode) -> None:
        self.node = node
        # Ground checks, compiled once: nothing is bound, so no slots.
        self.pre_checks = tuple(
            compile_check(check, {}) for check in node.pre_checks
        )
        self._order_preds = tuple(sorted(node.positive_preds))
        self._plans: dict[tuple, tuple[Sequence[AtomNode], Kernel]] = {}
        self._kernels: dict[tuple[int, ...], Kernel] = {}
        self._kernel_lock = threading.Lock()

    def plan_for(
        self,
        orderer: "Orderer",
        first: AtomNode | None = None,
        counters: "EvalCounters | None" = None,
    ) -> tuple[Sequence[AtomNode], Kernel]:
        """The join order under ``orderer`` and its kernel, memoized.

        Keyed by the delta occurrence and, for multi-atom rules, the
        orderer's signature, so a rule is re-planned only once its body
        relations' cardinalities drift by ~2x.  A hit counts
        ``kernel_hits`` (and ``replans_avoided`` for multi-atom rules).
        """
        positive = self.node.positive
        multi = len(positive) > 1
        key = (
            -1 if first is None else first.index,
            orderer.signature(self._order_preds) if multi else None,
        )
        cached = self._plans.get(key)
        if cached is not None:
            if counters is not None:
                counters.kernel_hits += 1
                if multi:
                    counters.replans_avoided += 1
            return cached
        order = orderer(positive, first) if multi else positive
        planned = (order, self._kernel_for(order, counters))
        if len(self._plans) >= _PLAN_MEMO_LIMIT:
            self._plans.clear()
        self._plans[key] = planned
        return planned

    def _kernel_for(
        self, order: Sequence[AtomNode], counters: "EvalCounters | None"
    ) -> Kernel:
        """The kernel of ``order``: one per distinct order, compiled once
        (``kernels_compiled``, also tallied process-wide), then reused."""
        key = tuple(info.index for info in order)
        with self._kernel_lock:
            kernel = self._kernels.get(key)
            fresh = kernel is None
            if fresh:
                if len(self._kernels) >= _KERNEL_MEMO_LIMIT:
                    self._kernels.clear()
                kernel = compile_kernel(self.node, order, self.schedule(order))
                self._kernels[key] = kernel
                _count_kernel()
        if counters is not None:
            if fresh:
                counters.kernels_compiled += 1
            else:
                counters.kernel_hits += 1
        return kernel

    def schedule(self, order: Sequence[AtomNode]) -> list[list]:
        """``checks_at[i]``: checks to run right after ``order[i]`` matches."""
        checks_at: list[list] = [[] for _ in order]
        bound: set[Variable] = set()
        bound_by: list[set[Variable]] = []
        for info in order:
            bound |= info.variables
            bound_by.append(set(bound))
        for check in self.node.checks:
            variables = set(check.variables())
            for i, available in enumerate(bound_by):
                if variables <= available:
                    checks_at[i].append(check)
                    break
            else:
                raise EvaluationError(
                    f"literal {check} has variables not bound by any "
                    "positive atom"
                )
        return checks_at


def _pre_checks_pass(crule: CompiledRule, store: FactStore) -> bool:
    return all(check(store, ()) for check in crule.pre_checks)


def _join(
    crule: CompiledRule,
    store: FactStore,
    orderer: Orderer,
    derived: set[tuple],
    first: AtomNode | None = None,
    first_rows=None,
    counters: "EvalCounters | None" = None,
) -> None:
    """Run one rule's kernel, adding head tuples to ``derived``.

    With ``first``/``first_rows`` given, that occurrence is evaluated
    first and enumerates only ``first_rows`` (the semi-naive delta
    restriction); the other atoms read the full store.
    """
    if not _pre_checks_pass(crule, store):
        return
    _order, kernel = crule.plan_for(orderer, first, counters)
    if first_rows is not None:
        kernel.run_delta(store, derived, first_rows)
    else:
        kernel.run_full(store, derived)


def derive_rule(
    crule: CompiledRule,
    store: FactStore,
    orderer: Orderer,
    delta: Facts | None = None,
    counters: "EvalCounters | None" = None,
) -> set[tuple]:
    """All head tuples one rule derives (optionally delta-restricted)."""
    node = crule.node
    derived: set[tuple] = set()
    if not node.positive:
        # Body is empty or has only checks over constants.  A delta pass
        # can never use such a rule (no positive occurrence to restrict).
        if delta is None and _pre_checks_pass(crule, store):
            derived.add(node.rule.head.ground_tuple({}))
        return derived
    if delta is None:
        _join(crule, store, orderer, derived, counters=counters)
        return derived
    for info in node.positive:
        delta_rows = delta.get(info.atom.predicate)
        if not delta_rows:
            continue
        _join(
            crule,
            store,
            orderer,
            derived,
            first=info,
            first_rows=delta_rows,
            counters=counters,
        )
    return derived


@dataclass
class EvalCounters:
    """Plan/evaluation counters of one session (or one executor).

    ``full_rule_evals`` counts complete joins of a rule body;
    ``delta_rule_evals`` counts delta-restricted joins;
    ``delta_rules_skipped`` counts incremental rules skipped outright
    because their delta was empty; ``static_cache_hits`` counts
    database-only rules served from cache.  ``plans_compiled`` /
    ``plan_cache_hits`` record whether this session's physical plan was
    freshly compiled or reused.  The hot-path counters:
    ``kernels_compiled`` / ``kernel_hits`` record compiled rule kernels
    built vs reused (see :mod:`repro.datalog.plan.kernels`), and
    ``replans_avoided`` counts join orders served from the per-rule
    memo instead of re-running the cost model.
    """

    plans_compiled: int = 0
    plan_cache_hits: int = 0
    full_rule_evals: int = 0
    delta_rule_evals: int = 0
    delta_rules_skipped: int = 0
    static_cache_hits: int = 0
    kernels_compiled: int = 0
    kernel_hits: int = 0
    replans_avoided: int = 0

    def copy(self) -> "EvalCounters":
        # Field-by-field construction: this runs twice per submit() (the
        # before/after delta) and dataclasses.replace() is measurably
        # slower than a direct call.
        return EvalCounters(
            self.plans_compiled,
            self.plan_cache_hits,
            self.full_rule_evals,
            self.delta_rule_evals,
            self.delta_rules_skipped,
            self.static_cache_hits,
            self.kernels_compiled,
            self.kernel_hits,
            self.replans_avoided,
        )

    def __add__(self, other: "EvalCounters") -> "EvalCounters":
        return EvalCounters(
            self.plans_compiled + other.plans_compiled,
            self.plan_cache_hits + other.plan_cache_hits,
            self.full_rule_evals + other.full_rule_evals,
            self.delta_rule_evals + other.delta_rule_evals,
            self.delta_rules_skipped + other.delta_rules_skipped,
            self.static_cache_hits + other.static_cache_hits,
            self.kernels_compiled + other.kernels_compiled,
            self.kernel_hits + other.kernel_hits,
            self.replans_avoided + other.replans_avoided,
        )

    def __sub__(self, other: "EvalCounters") -> "EvalCounters":
        return EvalCounters(
            self.plans_compiled - other.plans_compiled,
            self.plan_cache_hits - other.plan_cache_hits,
            self.full_rule_evals - other.full_rule_evals,
            self.delta_rule_evals - other.delta_rule_evals,
            self.delta_rules_skipped - other.delta_rules_skipped,
            self.static_cache_hits - other.static_cache_hits,
            self.kernels_compiled - other.kernels_compiled,
            self.kernel_hits - other.kernel_hits,
            self.replans_avoided - other.replans_avoided,
        )


# Incremental rule categories: how one rule behaves across steps when
# ``volatile`` predicates change arbitrarily and ``monotone`` ones grow.
CATEGORY_RECOMPUTE = "recompute"  # touches volatile facts or negates monotone
CATEGORY_DELTA = "delta"  # monotone positive body: cache + delta join
CATEGORY_STATIC = "static"  # database-only body: cache forever


class IncrementalExecutor:
    """Cross-step incremental evaluation of one flat program.

    The contract: between successive :meth:`step` calls, the rows of
    every ``monotone`` predicate only grow and every non-``volatile``,
    non-``monotone`` predicate (the database) never changes -- exactly
    the Spocus situation, with per-step inputs volatile and cumulative
    state monotone.  Each rule is classified once:

    * ``recompute`` -- body mentions a volatile predicate (positively or
      negated) or negates a monotone one: its derivations can appear
      *and disappear*, so the rule re-joins every step (cheap: the
      ordering starts at the tiny per-step input relations);
    * ``delta`` -- positive atoms over monotone/database predicates
      only, negation only on the database: derivations are monotone, so
      the cached result is extended by a delta-restricted join over the
      step's new monotone rows (or skipped when nothing changed);
    * ``static`` -- database-only body: joined once, cached for the
      session's lifetime.

    An executor is per-session mutable state and is NOT thread-safe:
    the pod service keeps it safe by stepping each session on exactly
    one thread at a time (the shared, read-only
    :class:`PhysicalPlan` is what crosses threads).
    """

    __slots__ = ("plan", "volatile", "monotone", "categories", "_caches",
                 "_previous", "counters")

    def __init__(
        self,
        plan: "PhysicalPlan",
        volatile: Iterable[str],
        monotone: Iterable[str],
    ) -> None:
        self.plan = plan
        self.volatile = frozenset(volatile)
        self.monotone = frozenset(monotone)
        self.categories = plan.incremental_categories(
            self.volatile, self.monotone
        )
        self._caches: list[frozenset[tuple] | set[tuple] | None] = [
            None for _ in plan.compiled
        ]
        self._previous: dict[str, frozenset[tuple]] = {}
        self.counters = EvalCounters()

    def _delta_of(
        self, monotone_rows: Mapping[str, frozenset[tuple]]
    ) -> dict[str, frozenset[tuple]]:
        """New rows per monotone predicate since the previous step."""
        delta: dict[str, frozenset[tuple]] = {}
        for name, rows in monotone_rows.items():
            previous = self._previous.get(name)
            if previous is None:
                fresh = frozenset(rows)
            elif len(rows) == len(previous):
                continue  # monotone, so equal sizes mean equal sets
            else:
                fresh = frozenset(rows) - previous
            if fresh:
                delta[name] = fresh
        return delta

    def step(
        self,
        store: "Facts | FactStore",
        monotone_rows: Mapping[str, frozenset[tuple]],
    ) -> dict[str, frozenset[tuple]]:
        """Derive all head facts for the current step.

        ``store`` is the step's full fact store (volatile + monotone +
        database); ``monotone_rows`` the current rows of each monotone
        predicate, from which the executor computes the step's delta
        itself.  Returns every head predicate mapped to its derived
        rows.
        """
        store = coerce_store(store)
        orderer = self.plan.orderer(store)
        delta = self._delta_of(monotone_rows)
        counters = self.counters
        derived: dict[str, set[tuple]] = {
            predicate: set() for predicate in self.plan.logical.idb
        }
        for i, crule in enumerate(self.plan.compiled):
            category = self.categories[i]
            if category == CATEGORY_RECOMPUTE:
                rows = derive_rule(crule, store, orderer, counters=counters)
                counters.full_rule_evals += 1
            elif category == CATEGORY_STATIC:
                cache = self._caches[i]
                if cache is None:
                    cache = frozenset(
                        derive_rule(crule, store, orderer, counters=counters)
                    )
                    self._caches[i] = cache
                    counters.full_rule_evals += 1
                else:
                    counters.static_cache_hits += 1
                rows = cache
            else:  # CATEGORY_DELTA
                cache = self._caches[i]
                if cache is None:
                    cache = derive_rule(crule, store, orderer, counters=counters)
                    counters.full_rule_evals += 1
                else:
                    relevant = {
                        name: delta[name]
                        for name in crule.node.positive_preds
                        if name in delta
                    }
                    if relevant:
                        cache |= derive_rule(
                            crule, store, orderer, delta=relevant,
                            counters=counters,
                        )
                        counters.delta_rule_evals += 1
                    else:
                        counters.delta_rules_skipped += 1
                self._caches[i] = cache
                rows = cache
            derived[crule.node.rule.head.predicate].update(rows)
        self._previous = {
            name: frozenset(rows) for name, rows in monotone_rows.items()
        }
        return {name: frozenset(rows) for name, rows in derived.items()}


class PhysicalPlan:
    """An executable plan: logical structure + ordering policy."""

    __slots__ = ("logical", "ordering", "compiled", "_categories")

    def __init__(
        self, logical: LogicalPlan, ordering: str = ORDERING_COST
    ) -> None:
        if ordering not in ORDERINGS:
            raise PlanError(
                f"unknown ordering {ordering!r}; expected one of {ORDERINGS}"
            )
        self.logical = logical
        self.ordering = ordering
        self.compiled = [CompiledRule(node) for node in logical.rules]
        self._categories: dict[tuple, tuple[str, ...]] = {}

    def incremental_categories(
        self, volatile: frozenset[str], monotone: frozenset[str]
    ) -> tuple[str, ...]:
        """Each rule's :class:`IncrementalExecutor` category, memoized.

        Every session restored over the shared plan reuses one tuple (a
        racing first touch publishes the same value twice).
        """
        key = (volatile, monotone)
        cached = self._categories.get(key)
        if cached is not None:
            return cached
        program = self.logical.program
        if program.body_predicates() & program.head_predicates():
            raise PlanError(
                "incremental execution needs a flat program (no derived "
                "predicate in any rule body)"
            )
        overlap = volatile & monotone
        if overlap:
            raise PlanError(
                f"predicates cannot be volatile and monotone: {sorted(overlap)}"
            )
        categories = []
        for crule in self.compiled:
            positive = crule.node.positive_predicates()
            negated = crule.node.negated_predicates()
            if (positive | negated) & volatile or negated & monotone:
                categories.append(CATEGORY_RECOMPUTE)
            elif positive & monotone:
                categories.append(CATEGORY_DELTA)
            else:
                categories.append(CATEGORY_STATIC)
        self._categories[key] = cached = tuple(categories)
        return cached

    # -- ordering ----------------------------------------------------------------

    def orderer(self, store: FactStore | None) -> Orderer:
        """An ``(atoms, first) -> order`` callable for one store."""
        return Orderer(self.ordering, store)

    def _compiled_by_stratum(self) -> list[list[CompiledRule]]:
        by_node = {id(crule.node): crule for crule in self.compiled}
        return [
            [by_node[id(node)] for node in stratum]
            for stratum in self.logical.strata_rules()
        ]

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        facts: "Facts | FactStore",
        max_iterations: int = 100_000,
        counters: "EvalCounters | None" = None,
    ) -> dict[str, frozenset[tuple]]:
        """Stratified fixpoint evaluation; returns all facts (EDB + IDB).

        ``facts`` may be a plain mapping or a pre-indexed
        :class:`~repro.relalg.indexes.FactStore`; a store is layered
        over, never mutated, so its indexes (e.g. over a large shared
        catalog) are reused across executions.  ``counters`` (optional)
        collects the kernel/replan accounting of this execution.
        """
        if isinstance(facts, FactStore):
            store = FactStore(base=facts)
        else:
            store = FactStore(facts)
        for predicate in self.logical.idb:
            store.ensure(predicate)
        orderer = self.orderer(store)

        for stratum_rules in self._compiled_by_stratum():
            # First full pass.
            delta: dict[str, frozenset[tuple]] = {}
            for crule in stratum_rules:
                head = crule.node.rule.head.predicate
                fresh = store.add(
                    head,
                    derive_rule(crule, store, orderer, counters=counters),
                )
                if fresh:
                    delta[head] = delta.get(head, frozenset()) | fresh
            # Semi-naive iteration to fixpoint.
            iterations = 0
            while delta:
                iterations += 1
                if iterations > max_iterations:
                    raise EvaluationError("fixpoint iteration budget exceeded")
                next_delta: dict[str, frozenset[tuple]] = {}
                for crule in stratum_rules:
                    node = crule.node
                    if not (node.body_preds & delta.keys()):
                        continue
                    head = node.rule.head.predicate
                    fresh = store.add(
                        head,
                        derive_rule(
                            crule, store, orderer, delta=delta,
                            counters=counters,
                        ),
                    )
                    if fresh:
                        next_delta[head] = (
                            next_delta.get(head, frozenset()) | fresh
                        )
                delta = next_delta
        return store.as_dict()

    def execute_delta(
        self,
        facts: "Facts | FactStore",
        delta: Facts,
        counters: "EvalCounters | None" = None,
    ) -> dict[str, frozenset[tuple]]:
        """One semi-naive delta pass over every rule.

        For each rule, runs one join variant per positive occurrence
        whose predicate has delta rows, with that occurrence restricted
        to the delta; ``facts`` must already contain the delta rows.
        Returns the derived head tuples per head predicate (no
        fixpoint: for flat/nonrecursive programs a single pass is
        complete; recursive strata iterate this inside
        :meth:`execute`).
        """
        store = coerce_store(facts)
        orderer = self.orderer(store)
        derived: dict[str, frozenset[tuple]] = {}
        for crule in self.compiled:
            head = crule.node.rule.head.predicate
            rows = derive_rule(
                crule, store, orderer, delta=delta, counters=counters
            )
            if rows or head not in derived:
                derived[head] = derived.get(head, frozenset()) | rows
        return derived

    def new_incremental(
        self, volatile: Iterable[str], monotone: Iterable[str]
    ) -> IncrementalExecutor:
        """A per-session incremental executor over this (shared) plan."""
        return IncrementalExecutor(self, volatile, monotone)

    # -- explain -----------------------------------------------------------------

    def explain(self, store: "Facts | FactStore | None" = None) -> str:
        """A stable, testable description of the plan.

        With a store, join orders are the ones :meth:`execute` runs
        against it right now -- read through the same per-rule order
        memo, so a memoized order still in force is the one shown --
        annotated with relation sizes and (under cost ordering) the
        cost model's row estimates.  Without one, the static fallback
        order is shown.
        """
        if store is not None and not isinstance(store, FactStore):
            store = FactStore(store)
        orderer = self.orderer(store)
        model = orderer.model
        shape = "nonrecursive" if self.logical.nonrecursive else "recursive"
        strata = self.logical.strata_rules()
        lines = [
            f"plan: ordering={self.ordering}, {len(self.compiled)} rules, "
            f"{len(strata)} strata, {shape}"
            + ("" if store is not None else " (no statistics: static order)")
        ]
        by_node = {id(crule.node): crule for crule in self.compiled}
        for number, stratum in enumerate(strata, 1):
            lines.append(f"stratum {number}:")
            for node in stratum:
                crule = by_node[id(node)]
                lines.append(f"  {node.rule}")
                if not node.positive:
                    lines.append("    join: (no positive atoms)")
                else:
                    order, _kernel = crule.plan_for(orderer)
                    parts = []
                    bound: set[Variable] = set()
                    for info in order:
                        if store is None:
                            parts.append(str(info.atom))
                        else:
                            rows = store.count(info.atom.predicate)
                            note = f"rows={rows}"
                            if model is not None:
                                estimate = model.estimate(info, bound)
                                note += f", est={estimate:g}"
                            parts.append(f"{info.atom} [{note}]")
                        bound |= info.variables
                    lines.append("    join: " + " -> ".join(parts))
                    for slot, checks in enumerate(crule.schedule(order)):
                        for check in checks:
                            lines.append(
                                f"    check after {order[slot].atom}: {check}"
                            )
                for check in node.pre_checks:
                    lines.append(f"    pre-check: {check}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(ordering={self.ordering!r}, "
            f"rules={len(self.compiled)})"
        )
