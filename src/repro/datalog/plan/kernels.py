"""Compiled rule kernels: the executor of every rule body.

A rule body's per-row work -- walking the atom's terms, branching on
term kind (constant? variable? bound?) -- is the same for every row: it
depends only on the rule and the join order.  A *kernel* resolves it
once, at compile time, by generating one straight-line Python function
per (rule, join order), in the manner of Neumann's compiled query plans
("Efficiently Compiling Efficient Query Plans for Modern Hardware",
VLDB 2011):

* variables become locals (``v0``, ``v1``, ... in binding order), so
  binding is a tuple unpack and an equality recheck is a local compare;
* each join level is a loop (id-bucket index lookup or scan) or, when
  every position is bound, one membership test; each relation's rows
  and index are fetched once per call, an index on its first probe;
* negated atoms, inequalities, and the head tuple are inlined where
  their variables are bound;
* every row still passes an arity guard, so mixed-arity relations
  match exactly as the reference does.

Predicate names, constants and index positions reach the generated
code through its namespace (``p0``, ``c0``, ``k1``, ...), never as text
spliced into the source, so any value is matched as data.  The source
is kept on the :class:`Kernel` (``Kernel.source``), where a golden test
pins its shape.

Kernels enumerate candidates through the columnar side of
:class:`~repro.relalg.indexes.FactStore`: :meth:`id_buckets` maps
dereferenced against the shared :meth:`row_list`.

One kernel is generated per (rule, join order) on its first use and
cached on the rule (see
:class:`~repro.datalog.plan.physical.CompiledRule`), with two entry
points: the full join, and the semi-naive variant whose first level
enumerates supplied delta rows (filtering constants and repeated
variables explicitly, since those rows bypass the index).  Each entry
is compiled to bytecode when first called.  The
reference oracle is the scan-based
:func:`~repro.datalog.evaluate.evaluate_program_naive`; the hypothesis
suite in ``tests/test_kernels.py`` pins both entries to it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import EvaluationError, PlanError
from repro.datalog.ast import Constant, Inequality, NegatedAtom
from repro.datalog.plan.logical import AtomNode, RuleNode
from repro.relalg.indexes import FactStore

__all__ = ["Kernel", "compile_ground_check", "compile_kernel"]


def compile_ground_check(check) -> Callable[[FactStore], bool]:
    """A variable-free negated atom or inequality as ``store -> bool``.

    Ground checks gate a whole rule before any join work (see
    :attr:`~repro.datalog.plan.logical.RuleNode.pre_checks`).
    """
    if isinstance(check, NegatedAtom):
        pred = check.atom.predicate
        row = check.atom.ground_tuple({})
        return lambda store: row not in store.rows(pred)
    if isinstance(check, Inequality):
        differ = check.left.value != check.right.value
        return lambda store: differ
    raise EvaluationError(f"not a checkable literal: {check}")


class _Source:
    """The namespace generated code reads.

    Every predicate name, constant and position tuple becomes a
    namespace entry; the text only ever names the entry.  Constants
    are never shared between occurrences: ``1``, ``1.0``, ``True`` and
    ``-0.0``/``0.0`` compare equal but must each stay what they are.
    """

    def __init__(self) -> None:
        self.namespace: dict[str, object] = {}
        self._shared: dict[tuple[str, object], str] = {}
        self._counts: dict[str, int] = {}

    def _fresh(self, prefix: str, value) -> str:
        count = self._counts.get(prefix, 0)
        self._counts[prefix] = count + 1
        name = f"{prefix}{count}"
        self.namespace[name] = value
        return name

    def constant(self, value) -> str:
        return self._fresh("c", value)

    def shared(self, prefix: str, value: "str | tuple[int, ...]") -> str:
        """A predicate name (``p``) or position tuple (``k``), named once."""
        name = self._shared.get((prefix, value))
        if name is None:
            name = self._shared[(prefix, value)] = self._fresh(prefix, value)
        return name


class _Level:
    """One join level: its atom's terms classified against the binding.

    ``targets`` are the names a row unpacks into when the row came from
    this level's own lookup (key positions already match: ``_``);
    ``delta_targets`` when it came from the caller's delta rows (level 0
    only, where nothing is bound yet and constants must be checked).
    """

    def __init__(self, number: int, atom, bound: dict, src: _Source) -> None:
        self.number = number
        self.arity = atom.arity
        self.pred = src.shared("p", atom.predicate)
        self.keys: list[tuple[int, str]] = []
        self.targets: list[str] = []
        self.delta_targets: list[str] = []
        #: (unpacked temp, expression it must equal) per row.
        self.rechecks: list[tuple[str, str]] = []
        self.const_checks: list[tuple[str, str]] = []
        fresh: dict = {}
        for position, term in enumerate(atom.terms):
            temp = f"t{number}_{position}"
            if isinstance(term, Constant):
                constant = src.constant(term.value)
                self.keys.append((position, constant))
                self.const_checks.append((temp, constant))
                self.targets.append("_")
                self.delta_targets.append(temp)
            elif term in fresh:
                self.rechecks.append((temp, fresh[term]))
                self.targets.append(temp)
                self.delta_targets.append(temp)
            elif term in bound:
                self.keys.append((position, bound[term]))
                self.targets.append("_")
                self.delta_targets.append("_")
            else:
                fresh[term] = bound[term] = f"v{len(bound)}"
                self.targets.append(fresh[term])
                self.delta_targets.append(fresh[term])
        if len(self.keys) == self.arity:
            self.mode = "contains"
        elif self.keys:
            self.mode = "index"
            self.positions = src.shared(
                "k", tuple(position for position, _ in self.keys)
            )
        else:
            self.mode = "scan"

    def key_tuple(self) -> str:
        return _tuple_text(expr for _position, expr in self.keys)


def _tuple_text(parts) -> str:
    parts = list(parts)
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _term_text(term, bound: dict, src: _Source) -> str:
    if isinstance(term, Constant):
        return src.constant(term.value)
    return bound[term]


class _Writer:
    """Indented lines, tracking whether a skip is ``continue`` or ``return``."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 1
        self.loops = 0

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def skip_if(self, condition: str) -> None:
        """Drop the current candidate (outside every loop: the call)."""
        self.line(f"if {condition}:")
        self.lines.append(
            "    " * (self.depth + 1)
            + ("continue" if self.loops else "return")
        )

    def loop(self, header: str) -> None:
        self.line(header)
        self.depth += 1
        self.loops += 1


def _emit_row(w: _Writer, level: _Level, row: str, delta: bool) -> None:
    """Arity guard, unpack, and the per-row equality checks of a level."""
    w.skip_if(f"len({row}) != {level.arity}")
    targets = level.delta_targets if delta else level.targets
    if any(target != "_" for target in targets):
        comma = "," if level.arity == 1 else ""
        w.line(f"{', '.join(targets)}{comma} = {row}")
    for temp, expected in level.rechecks + (level.const_checks if delta else []):
        w.skip_if(f"{temp} != {expected}")


def _check_conditions(checks, bound: dict, src: _Source, negated: dict):
    """The skip condition of each negated atom and inequality."""
    conditions = []
    for check in checks:
        if isinstance(check, NegatedAtom):
            row = _tuple_text(
                _term_text(term, bound, src) for term in check.atom.terms
            )
            conditions.append(f"{row} in {negated[id(check)]}")
        elif isinstance(check, Inequality):
            left = _term_text(check.left, bound, src)
            right = _term_text(check.right, bound, src)
            conditions.append(f"not ({left} != {right})")
        else:
            raise EvaluationError(f"not a checkable literal: {check}")
    return conditions


#: Loops one generated function nests at most; CPython refuses more
#: than 20 nested blocks, so deeper joins continue in another function.
_MAX_LOOPS = 16


def _generate(
    node: RuleNode, order: Sequence[AtomNode], checks_at
) -> tuple[str, str, dict]:
    """The source of each entry, and the namespace both read."""
    src = _Source()
    bound: dict = {}
    negated = {
        id(check): f"n{number}"
        for number, check in enumerate(
            check
            for checks in checks_at
            for check in checks
            if isinstance(check, NegatedAtom)
        )
    }
    levels: list[_Level] = []
    conditions: list[list[str]] = []
    #: The variable locals bound before each level.
    bound_before: list[list[str]] = []
    for number, info in enumerate(order):
        bound_before.append(list(bound.values()))
        levels.append(_Level(number, info.atom, bound, src))
        conditions.append(
            _check_conditions(checks_at[number], bound, src, negated)
        )
    negated_preds = {
        negated[id(check)]: src.shared("p", check.atom.predicate)
        for checks in checks_at
        for check in checks
        if isinstance(check, NegatedAtom)
    }
    head = _tuple_text(
        _term_text(term, bound, src) for term in node.rule.head.terms
    )

    def function(header: str, first: int, delta: bool) -> list[str]:
        """One function running ``levels[first:]``; a join nested deeper
        than Python allows continues in a further function."""
        w = _Writer()
        fetch = levels[first + 1 if delta else first:]
        if fetch and fetch[0].number == 0 and fetch[0].mode != "index":
            # An empty first relation ends the call before any other fetch.
            w.line(f"s0 = store.rows({fetch[0].pred})")
            w.skip_if("not s0")
            fetch = fetch[1:]
        if first == 0:
            w.line("add = out.add")
        for name, pred in negated_preds.items():
            w.line(f"{name} = store.rows({pred})")
        for level in fetch:
            if level.mode == "index":
                w.line(f"b{level.number} = l{level.number} = None")
            else:
                w.line(f"s{level.number} = store.rows({level.pred})")
        tail: list[str] = []
        for level in levels[first:]:
            n = level.number
            if w.loops == _MAX_LOOPS and level.mode != "contains":
                args = ", ".join(["store", "add", *bound_before[n]])
                w.line(f"level{n}({args})")
                tail = function(f"def level{n}({args}):", n, False)
                break
            if delta and n == 0:
                w.loop("for r0 in rows:")
                _emit_row(w, level, "r0", delta=True)
            elif level.mode == "contains":
                w.skip_if(f"{level.key_tuple()} not in s{n}")
            elif level.mode == "index":
                w.line(f"if b{n} is None:")
                w.line(f"    b{n} = store.id_buckets({level.pred}, {level.positions})")
                w.line(f"    l{n} = store.row_list({level.pred})")
                w.loop(f"for i{n} in b{n}.get({level.key_tuple()}, ()):")
                w.line(f"r{n} = l{n}[i{n}]")
                _emit_row(w, level, f"r{n}", delta=False)
            else:
                w.loop(f"for r{n} in s{n}:")
                _emit_row(w, level, f"r{n}", delta=False)
            for condition in conditions[n]:
                w.skip_if(condition)
        else:
            w.line(f"add({head})")
        return [header, *w.lines, "", *tail]

    full = "\n".join(function("def full(store, out):", 0, False))
    delta = "\n".join(function("def delta(store, out, rows):", 0, True))
    return full, delta, src.namespace


class Kernel:
    """A compiled (rule, join order) pair: full and delta entry points.

    ``source`` is the generated text of both entries (``full`` and
    ``delta``); the values it names live in the entries' namespace.
    Each entry is compiled to bytecode on its first call, so a rule
    only ever joined in full never pays for its delta entry.
    """

    __slots__ = ("source", "_sources", "_namespace", "_filename",
                 "run_full", "run_delta")

    def __init__(
        self, full: str, delta: str, namespace: dict, filename: str
    ) -> None:
        self.source = full + "\n" + delta
        self._sources = {"full": full, "delta": delta}
        self._namespace = namespace
        self._filename = filename
        #: ``run_full(store, derived)``: the full join, adding head
        #: tuples to the set ``derived``.
        self.run_full = self._first_full
        #: ``run_delta(store, derived, rows)``: the join with its first
        #: level restricted to ``rows`` (the delta).
        self.run_delta = self._first_delta

    def _entry(self, name: str):
        # A racing first call compiles the same text twice; either
        # function is the entry.
        namespace = dict(self._namespace)
        exec(compile(self._sources[name], self._filename, "exec"), namespace)
        return namespace[name]

    def _first_full(self, store: FactStore, derived: set) -> None:
        self.run_full = self._entry("full")
        self.run_full(store, derived)

    def _first_delta(self, store: FactStore, derived: set, rows) -> None:
        self.run_delta = self._entry("delta")
        self.run_delta(store, derived, rows)


def compile_kernel(
    node: RuleNode,
    order: Sequence[AtomNode],
    checks_at: Sequence[Sequence],
) -> Kernel:
    """Compile one rule body, joined in ``order``, into a :class:`Kernel`.

    ``checks_at`` is the check schedule for this order (see
    :meth:`~repro.datalog.plan.physical.CompiledRule.schedule`): the
    negations/inequalities to evaluate right after each level matches.
    Pre-checks (ground literals) stay with the caller.
    """
    if not order:
        raise PlanError("cannot compile a kernel for an empty join order")
    full, delta, namespace = _generate(node, order, checks_at)
    return Kernel(full, delta, namespace, f"<kernel {node.rule}>")
