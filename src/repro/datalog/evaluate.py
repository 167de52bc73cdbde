"""Bottom-up evaluation of datalog programs.

As of the QueryPlan redesign this module is a thin, stable wrapper over
the typed plan API in :mod:`repro.datalog.plan`: programs are compiled
(once, process-wide) into a
:class:`~repro.datalog.plan.physical.PhysicalPlan` whose ``execute``
runs the stratified semi-naive fixpoint with compiled rule kernels and
cost-based join ordering (greedy selectivity order when statistics are
absent).  ``evaluate_program`` / ``evaluate_rule`` keep their original
signatures and exact semantics; callers that want planning, explain
output, or cross-step incremental evaluation use the plan API directly.

:func:`evaluate_rule_naive` / :func:`evaluate_program_naive` keep the
original scan-based nested-loop join as the one reference oracle: the
property-based tests pin the compiled kernels to it, and
:func:`naive_evaluation` routes whole workloads through it so log
digests can be compared end to end.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Mapping

from repro.errors import EvaluationError
from repro.datalog.ast import (
    Constant,
    Inequality,
    NegatedAtom,
    PositiveAtom,
    Program,
    Rule,
    Variable,
)
from repro.datalog.plan.logical import RuleNode
from repro.datalog.plan.physical import (
    CompiledRule,
    Dispatch,
    coerce_store,
    derive_rule,
)
from repro.datalog.plan.planner import ORDERING_COST, compile_program
from repro.datalog.safety import check_rule_safety
from repro.datalog.stratify import stratify
from repro.relalg.indexes import FactStore

Facts = Mapping[str, frozenset[tuple]]
Binding = dict[Variable, object]

_UNSET = object()


# -- public API -------------------------------------------------------------------

_rule_cache: dict[Rule, CompiledRule] = {}
_RULE_CACHE_LIMIT = 4096


def _compiled_rule(rule: Rule) -> CompiledRule:
    crule = _rule_cache.get(rule)
    if crule is None:
        if len(_rule_cache) >= _RULE_CACHE_LIMIT:
            _rule_cache.clear()
        crule = CompiledRule(RuleNode(rule))
        _rule_cache[rule] = crule
    return crule


def evaluate_rule(
    rule: Rule,
    facts: Facts | FactStore,
    delta: Facts | None = None,
) -> frozenset[tuple]:
    """Evaluate one rule against ``facts``; return derived head tuples.

    With ``delta`` given, performs the semi-naive version: one join
    variant per positive occurrence whose predicate has delta rows, with
    that occurrence restricted to the delta (used inside recursive
    strata).  Negated atoms are always evaluated against the full
    ``facts``.
    """
    crule = _compiled_rule(rule)
    store = coerce_store(facts)
    dispatch = Dispatch(ORDERING_COST, store)
    return frozenset(derive_rule(crule, store, dispatch, delta=delta))


def evaluate_program(
    program: Program,
    edb_facts: Facts | FactStore,
    max_iterations: int = 100_000,
) -> dict[str, frozenset[tuple]]:
    """Evaluate a stratified program; return all facts (EDB + derived).

    Compiles the program into its shared
    :class:`~repro.datalog.plan.physical.PhysicalPlan` (cached per
    program) and executes it.  ``edb_facts`` may be a plain mapping or a
    pre-indexed :class:`~repro.relalg.indexes.FactStore`; a store is
    layered over, never mutated, so its indexes (e.g. over a large
    shared catalog) are reused across evaluations.
    """
    if _FORCE_NAIVE:
        mapping = (
            edb_facts.as_dict()
            if isinstance(edb_facts, FactStore)
            else edb_facts
        )
        return evaluate_program_naive(program, mapping, max_iterations)
    plan = compile_program(program)
    return plan.execute(edb_facts, max_iterations=max_iterations)


# -- scan-based reference implementation ------------------------------------------

_FORCE_NAIVE = False


@contextmanager
def naive_evaluation():
    """Route :func:`evaluate_program` through the scan-based reference.

    Benchmark/testing hook: everything built on the evaluator (Spocus
    transducers, the runtime engine) transparently falls back to the
    original nested-loop join inside this context, which is how the
    index-vs-scan speedups and equivalence checks are measured end to
    end.  Incremental step contexts are also disabled while active (see
    :meth:`~repro.core.transducer.RelationalTransducer.new_step_context`).
    Not thread-safe; intended for benchmarks and tests only.
    """
    global _FORCE_NAIVE
    saved = _FORCE_NAIVE
    _FORCE_NAIVE = True
    try:
        yield
    finally:
        _FORCE_NAIVE = saved


def _term_value(term, binding: Binding):
    if isinstance(term, Constant):
        return term.value
    if term in binding:
        return binding[term]
    return _UNSET


def _match_atom(atom, row: tuple, binding: Binding) -> Binding | None:
    """Copying row matcher kept for the naive path."""
    if len(row) != atom.arity:
        return None
    extended = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extended.get(term, _UNSET)
            if bound is _UNSET:
                extended[term] = value
            elif bound != value:
                return None
    return extended


def _check_bound_literal_mapping(
    literal, binding: Binding, facts: Facts
) -> bool:
    """Mapping-backed bound-literal check (naive path)."""
    if isinstance(literal, NegatedAtom):
        row = literal.atom.ground_tuple(binding)
        return row not in facts.get(literal.atom.predicate, frozenset())
    if isinstance(literal, Inequality):
        return _term_value(literal.left, binding) != _term_value(
            literal.right, binding
        )
    raise EvaluationError(f"not a checkable literal: {literal}")


def evaluate_rule_naive(
    rule: Rule,
    facts: Facts,
    delta: Facts | None = None,
) -> frozenset[tuple]:
    """The original nested-loop join: full scan per atom, dict copied per
    row, atoms in body order.  Reference semantics for cross-checks and
    the baseline of the indexing benchmarks."""
    check_rule_safety(rule)
    positive = [l for l in rule.body if isinstance(l, PositiveAtom)]
    checks = [l for l in rule.body if not isinstance(l, PositiveAtom)]
    derived: set[tuple] = set()

    def run_checks(binding: Binding, pending: list) -> list | None:
        remaining = []
        for literal in pending:
            if all(v in binding for v in literal.variables()):
                if not _check_bound_literal_mapping(literal, binding, facts):
                    return None
            else:
                remaining.append(literal)
        return remaining

    def extend(index: int, binding: Binding, pending: list, used_delta: bool):
        if index == len(positive):
            if pending:
                unbound = {
                    v.name for l in pending for v in l.variables()
                } - {v.name for v in binding}
                raise EvaluationError(
                    f"rule {rule}: literals left unbound: {sorted(unbound)}"
                )
            if delta is None or used_delta:
                derived.add(rule.head.ground_tuple(binding))
            return
        atom = positive[index].atom
        for row in facts.get(atom.predicate, frozenset()):
            is_delta = bool(
                delta and row in delta.get(atom.predicate, frozenset())
            )
            extended = _match_atom(atom, row, binding)
            if extended is None:
                continue
            still_pending = run_checks(extended, pending)
            if still_pending is None:
                continue
            extend(index + 1, extended, still_pending, used_delta or is_delta)

    if not positive:
        pending = run_checks({}, list(checks))
        if pending is not None and not pending and delta is None:
            derived.add(rule.head.ground_tuple({}))
        return frozenset(derived)

    extend(0, {}, list(checks), False)
    return frozenset(derived)


def evaluate_program_naive(
    program: Program,
    edb_facts: Facts,
    max_iterations: int = 100_000,
) -> dict[str, frozenset[tuple]]:
    """Stratified fixpoint over :func:`evaluate_rule_naive` (seed path)."""
    facts: dict[str, frozenset[tuple]] = {
        name: frozenset(rows) for name, rows in edb_facts.items()
    }
    idb = program.head_predicates()
    for predicate in idb:
        facts.setdefault(predicate, frozenset())

    for stratum in stratify(program):
        stratum_rules = [
            r for r in program if r.head.predicate in stratum & idb
        ]
        if not stratum_rules:
            continue
        delta: dict[str, frozenset[tuple]] = {}
        for rule in stratum_rules:
            new_rows = evaluate_rule_naive(rule, facts)
            fresh = new_rows - facts[rule.head.predicate]
            if fresh:
                facts[rule.head.predicate] |= fresh
                delta[rule.head.predicate] = (
                    delta.get(rule.head.predicate, frozenset()) | fresh
                )
        iterations = 0
        while delta:
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError("fixpoint iteration budget exceeded")
            next_delta: dict[str, frozenset[tuple]] = {}
            for rule in stratum_rules:
                if not (rule.body_predicates() & set(delta)):
                    continue
                new_rows = evaluate_rule_naive(rule, facts, delta=delta)
                fresh = new_rows - facts[rule.head.predicate]
                if fresh:
                    facts[rule.head.predicate] |= fresh
                    next_delta[rule.head.predicate] = (
                        next_delta.get(rule.head.predicate, frozenset())
                        | fresh
                    )
            delta = next_delta
    return facts
