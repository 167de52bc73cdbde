"""Datalog engine.

Implements the rule language of the paper: datalog with negation and
inequality, evaluated bottom-up.  Spocus output programs are the
*nonrecursive semipositive* fragment (negation and inequality allowed,
no recursion through derived predicates, every variable range-restricted)
but the engine also supports general stratified programs, which the
chase-free parts of the library and the extension experiments use.
"""

from repro.datalog.ast import (
    Atom,
    Constant,
    Inequality,
    Literal,
    NegatedAtom,
    PositiveAtom,
    Program,
    Rule,
    Term,
    Variable,
)
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.safety import check_program_safety, check_rule_safety
from repro.datalog.stratify import (
    DependencyGraph,
    is_nonrecursive,
    is_semipositive,
    stratify,
)
from repro.datalog.evaluate import (
    evaluate_program,
    evaluate_program_naive,
    evaluate_rule,
    evaluate_rule_naive,
)
from repro.datalog.plan import (
    IncrementalExecutor,
    LogicalPlan,
    PhysicalPlan,
    Planner,
    compile_program,
)

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "Literal",
    "PositiveAtom",
    "NegatedAtom",
    "Inequality",
    "Rule",
    "Program",
    "parse_rule",
    "parse_program",
    "check_rule_safety",
    "check_program_safety",
    "DependencyGraph",
    "stratify",
    "is_nonrecursive",
    "is_semipositive",
    "evaluate_rule",
    "evaluate_program",
    "evaluate_rule_naive",
    "evaluate_program_naive",
    "LogicalPlan",
    "Planner",
    "PhysicalPlan",
    "IncrementalExecutor",
    "compile_program",
]
