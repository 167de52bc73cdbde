"""Logical query plans: the analyzed, execution-free view of a program.

A :class:`LogicalPlan` is built once from a
:class:`~repro.datalog.ast.Program` and captures everything that is
purely syntactic: the stratification, whether the program is recursive,
and -- per rule -- the safety-checked decomposition of the body into
positive atoms (the join inputs) and checks (negated atoms and
inequalities).  Nothing here touches facts; choosing a join order and running it
is the :class:`~repro.datalog.plan.planner.Planner` /
:class:`~repro.datalog.plan.physical.PhysicalPlan` side of the API.
"""

from __future__ import annotations

from functools import lru_cache

from repro.datalog.ast import (
    Constant,
    NegatedAtom,
    PositiveAtom,
    Program,
    Rule,
    Variable,
)
from repro.datalog.safety import check_rule_safety
from repro.datalog.stratify import is_nonrecursive, stratify


class AtomNode:
    """One positive body atom as a join input.

    ``index`` is the atom's position among the rule's positive atoms in
    body order -- the identity used by delta restriction and by the
    check schedules.
    """

    __slots__ = ("index", "atom", "variables", "constant_count")

    def __init__(self, index: int, atom) -> None:
        self.index = index
        self.atom = atom
        self.variables = frozenset(atom.variables())
        self.constant_count = sum(
            1 for term in atom.terms if isinstance(term, Constant)
        )

    def __repr__(self) -> str:
        return f"AtomNode({self.index}, {self.atom})"


class RuleNode:
    """The analyzed body of one safety-checked rule.

    ``positive`` are the join inputs; ``pre_checks`` are ground checks
    (no variables) runnable before any join work; ``checks`` are the
    remaining negated atoms and inequalities, to be scheduled as soon as
    their variables are bound.
    """

    __slots__ = ("rule", "positive", "checks", "pre_checks",
                 "positive_preds", "negated_preds", "body_preds")

    def __init__(self, rule: Rule) -> None:
        check_rule_safety(rule)
        self.rule = rule
        self.positive = [
            AtomNode(i, literal.atom)
            for i, literal in enumerate(
                l for l in rule.body if isinstance(l, PositiveAtom)
            )
        ]
        checks = [l for l in rule.body if not isinstance(l, PositiveAtom)]
        self.pre_checks = [c for c in checks if not set(c.variables())]
        self.checks = [c for c in checks if set(c.variables())]
        # Predicate sets are consulted per delta pass / fixpoint
        # iteration; precompute them once per (process-wide) plan.
        self.positive_preds = frozenset(
            node.atom.predicate for node in self.positive
        )
        self.negated_preds = frozenset(
            check.atom.predicate
            for check in (*self.pre_checks, *self.checks)
            if isinstance(check, NegatedAtom)
        )
        self.body_preds = self.positive_preds | self.negated_preds

    def positive_predicates(self) -> frozenset[str]:
        return self.positive_preds

    def negated_predicates(self) -> frozenset[str]:
        return self.negated_preds

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for node in self.positive:
            out |= node.variables
        return out

    def __repr__(self) -> str:
        return f"RuleNode({self.rule})"


class LogicalPlan:
    """A stratified program with analyzed rule bodies.

    ``strata`` is the predicate stratification, ``rules`` the analyzed
    rule nodes in program order, and ``nonrecursive`` records whether
    any IDB predicate depends on itself -- the property that gates
    single-pass execution and cross-step incremental stepping.
    """

    __slots__ = ("program", "strata", "rules", "nonrecursive", "idb")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.strata = stratify(program)
        self.rules = [RuleNode(rule) for rule in program]
        self.nonrecursive = is_nonrecursive(program)
        self.idb = program.head_predicates()

    @classmethod
    def of(cls, program: Program) -> "LogicalPlan":
        """The (cached) logical plan of ``program``."""
        return _logical_cached(program)

    def strata_rules(self) -> list[list[RuleNode]]:
        """Rule nodes grouped by the stratum their head belongs to."""
        grouped: list[list[RuleNode]] = []
        for stratum in self.strata:
            members = [
                node
                for node in self.rules
                if node.rule.head.predicate in stratum & self.idb
            ]
            if members:
                grouped.append(members)
        return grouped

    def __repr__(self) -> str:
        shape = "nonrecursive" if self.nonrecursive else "recursive"
        return (
            f"LogicalPlan({len(self.rules)} rules, "
            f"{len(self.strata)} strata, {shape})"
        )


@lru_cache(maxsize=1024)
def _logical_cached(program: Program) -> LogicalPlan:
    return LogicalPlan(program)
