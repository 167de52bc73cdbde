"""Abstract syntax for datalog rules.

Terms are variables or constants; literals are positive atoms, negated
atoms, or inequalities; rules have one head atom and a body of literals.
A rule may be *cumulative* (written ``+:-`` in the paper), which is how
Spocus state rules accumulate inputs.

All AST nodes are immutable and hashable so they can live in sets and be
used as dictionary keys by the analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import RuleError


class Term:
    """Base class of :class:`Variable` and :class:`Constant`."""

    def substitute(self, binding: Mapping["Variable", object]) -> "Term":
        raise NotImplementedError


@dataclass(frozen=True)
class Variable(Term):
    """A logical variable, e.g. ``X``."""

    name: str

    def __str__(self) -> str:
        return self.name

    def substitute(self, binding: Mapping["Variable", object]) -> Term:
        if self in binding:
            return Constant(binding[self])
        return self


@dataclass(frozen=True)
class Constant(Term):
    """A constant value (str, int, ...) under the unique-name assumption."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return self.value
        return repr(self.value)

    def substitute(self, binding: Mapping["Variable", object]) -> Term:
        return self


@dataclass(frozen=True)
class Atom:
    """A relational atom ``predicate(t1, ..., tk)`` (k may be 0)."""

    predicate: str
    terms: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.terms:
            return self.predicate
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Variable]:
        for term in self.terms:
            if isinstance(term, Variable):
                yield term

    def constants(self) -> Iterator[object]:
        for term in self.terms:
            if isinstance(term, Constant):
                yield term.value

    def substitute(self, binding: Mapping[Variable, object]) -> "Atom":
        return Atom(
            self.predicate, tuple(t.substitute(binding) for t in self.terms)
        )

    def ground_tuple(self, binding: Mapping[Variable, object]) -> tuple:
        """Return the tuple of values, requiring all variables bound."""
        values = []
        for term in self.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            elif term in binding:
                values.append(binding[term])
            else:
                raise RuleError(f"unbound variable {term} in {self}")
        return tuple(values)


class Literal:
    """Base class of body literals."""

    def variables(self) -> Iterator[Variable]:
        raise NotImplementedError


@dataclass(frozen=True)
class PositiveAtom(Literal):
    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()


@dataclass(frozen=True)
class NegatedAtom(Literal):
    atom: Atom

    def __str__(self) -> str:
        return f"NOT {self.atom}"

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()


@dataclass(frozen=True)
class Inequality(Literal):
    """The built-in ``left <> right``."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} <> {self.right}"

    def variables(self) -> Iterator[Variable]:
        for term in (self.left, self.right):
            if isinstance(term, Variable):
                yield term


@dataclass(frozen=True)
class Rule:
    """A rule ``head :- body`` (or ``head +:- body`` when cumulative)."""

    head: Atom
    body: tuple[Literal, ...] = ()
    cumulative: bool = False

    def __str__(self) -> str:
        op = "+:-" if self.cumulative else ":-"
        if not self.body:
            return f"{self.head}."
        return f"{self.head} {op} {', '.join(str(l) for l in self.body)}"

    def head_variables(self) -> set[Variable]:
        return set(self.head.variables())

    def body_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for literal in self.body:
            out.update(literal.variables())
        return out

    def positive_body_variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for literal in self.body:
            if isinstance(literal, PositiveAtom):
                out.update(literal.variables())
        return out

    def positive_atoms(self) -> list[Atom]:
        return [l.atom for l in self.body if isinstance(l, PositiveAtom)]

    def negated_atoms(self) -> list[Atom]:
        return [l.atom for l in self.body if isinstance(l, NegatedAtom)]

    def inequalities(self) -> list[Inequality]:
        return [l for l in self.body if isinstance(l, Inequality)]

    def body_predicates(self) -> set[str]:
        preds = {a.predicate for a in self.positive_atoms()}
        preds.update(a.predicate for a in self.negated_atoms())
        return preds

    def constants(self) -> set[object]:
        values = set(self.head.constants())
        for literal in self.body:
            if isinstance(literal, (PositiveAtom, NegatedAtom)):
                values.update(literal.atom.constants())
            elif isinstance(literal, Inequality):
                for term in (literal.left, literal.right):
                    if isinstance(term, Constant):
                        values.add(term.value)
        return values


@dataclass(frozen=True)
class Program:
    """An ordered collection of rules."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        # Hashed once: plan-cache lookups (every session restore) reuse it.
        object.__setattr__(self, "_hash", hash(self.rules))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickling rehashes under the receiving process's hash seed.
        return (Program, (self.rules,))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __str__(self) -> str:
        return "\n".join(f"{rule};" for rule in self.rules)

    @classmethod
    def of(cls, rules: Iterable[Rule]) -> "Program":
        return cls(tuple(rules))

    def head_predicates(self) -> set[str]:
        """The IDB predicates (those defined by some rule)."""
        return {rule.head.predicate for rule in self.rules}

    def body_predicates(self) -> set[str]:
        out: set[str] = set()
        for rule in self.rules:
            out |= rule.body_predicates()
        return out

    def edb_predicates(self) -> set[str]:
        """Predicates used in bodies but never defined (the EDB)."""
        return self.body_predicates() - self.head_predicates()

    def all_predicates(self) -> set[str]:
        return self.body_predicates() | self.head_predicates()

    def rules_for(self, predicate: str) -> list[Rule]:
        return [r for r in self.rules if r.head.predicate == predicate]

    def constants(self) -> set[object]:
        values: set[object] = set()
        for rule in self.rules:
            values |= rule.constants()
        return values

    def head_arities(self) -> dict[str, int]:
        """Arity of each IDB predicate; raises on inconsistency."""
        arities: dict[str, int] = {}
        for rule in self.rules:
            existing = arities.get(rule.head.predicate)
            if existing is not None and existing != rule.head.arity:
                raise RuleError(
                    f"predicate {rule.head.predicate!r} has heads of "
                    f"arity {existing} and {rule.head.arity}"
                )
            arities[rule.head.predicate] = rule.head.arity
        return arities
