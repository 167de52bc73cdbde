"""Compiled rule kernels: the executor of every rule body.

A rule body's per-row work -- walking the atom's terms, branching on
term kind (constant? variable? bound?) -- is the same for every row: it
depends only on the rule and the join order.  A *kernel* resolves it
once at compile time and runs the join as a chain of closures over a
flat environment:

* variables become integer *slots* in a per-call environment list
  (assigned in binding order along the join), so binding is a list
  store and an equality recheck is a list read;
* each join level precomputes its access mode (id-bucket index lookup /
  membership test / scan), its lookup-key recipe, which positions bind
  fresh slots, and which positions recheck already-bound ones;
* negated atoms, inequalities, and the head tuple compile to closures
  reading the same slots.

Kernels enumerate candidates through the columnar side of
:class:`~repro.relalg.indexes.FactStore`: :meth:`lookup_ids` id buckets
dereferenced against the shared :meth:`row_list`.

One kernel is compiled per (rule, join order) and cached on the rule
(see :class:`~repro.datalog.plan.physical.CompiledRule`), with two entry
points: the full join, and the semi-naive variant whose first level
enumerates supplied delta rows (filtering constants and bound positions
explicitly, since those rows bypass the index).  The reference oracle
is the scan-based :func:`~repro.datalog.evaluate.evaluate_program_naive`;
the hypothesis suite in ``tests/test_kernels.py`` pins kernels to it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import EvaluationError, PlanError
from repro.datalog.ast import Constant, Inequality, NegatedAtom
from repro.datalog.plan.logical import AtomNode, RuleNode
from repro.relalg.indexes import FactStore

__all__ = ["Kernel", "compile_check", "compile_kernel"]

# (is_slot, slot_or_value) recipe entries; a compiled term reference.
_Part = tuple[bool, object]
# check(store, env) -> bool closures compiled from negations/inequalities.
_Check = Callable[[FactStore, list], bool]

_MODE_CONTAINS = 0
_MODE_INDEX = 1
_MODE_SCAN = 2


def _part(term, slot_of: dict) -> _Part:
    if isinstance(term, Constant):
        return (False, term.value)
    return (True, slot_of[term])


def _parts(terms, slot_of: dict) -> tuple[_Part, ...]:
    return tuple(_part(term, slot_of) for term in terms)


def compile_check(check, slot_of: dict) -> _Check:
    """One negated atom or inequality as a ``(store, env) -> bool`` closure."""
    if isinstance(check, NegatedAtom):
        pred = check.atom.predicate
        parts = _parts(check.atom.terms, slot_of)

        def run_negated(store: FactStore, env: list) -> bool:
            return not store.contains(
                pred, tuple(env[x] if f else x for f, x in parts)
            )

        return run_negated
    if isinstance(check, Inequality):
        left_is_slot, left = _part(check.left, slot_of)
        right_is_slot, right = _part(check.right, slot_of)

        def run_inequality(store: FactStore, env: list) -> bool:
            return (env[left] if left_is_slot else left) != (
                env[right] if right_is_slot else right
            )

        return run_inequality
    raise EvaluationError(f"not a checkable literal: {check}")


class _LevelSpec:
    """The precomputed join plan of one level (one positive atom)."""

    __slots__ = (
        "pred", "arity", "mode", "positions", "key_parts",
        "binds", "rechecks", "const_checks",
    )

    def __init__(self, atom, bound_slots: dict, slot_of: dict) -> None:
        positions: list[int] = []
        key_parts: list[_Part] = []
        binds: list[tuple[int, int]] = []
        rechecks: list[tuple[int, int]] = []
        const_checks: list[tuple[int, object]] = []
        seen_here: set = set()
        for p, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                positions.append(p)
                key_parts.append((False, term.value))
                const_checks.append((p, term.value))
            elif term in bound_slots:
                positions.append(p)
                key_parts.append((True, bound_slots[term]))
            elif term in seen_here:
                rechecks.append((p, slot_of[term]))
            else:
                slot = slot_of.setdefault(term, len(slot_of))
                binds.append((p, slot))
                seen_here.add(term)
        self.pred = atom.predicate
        self.arity = atom.arity
        self.positions = tuple(positions)
        self.key_parts = tuple(key_parts)
        self.binds = tuple(binds)
        self.rechecks = tuple(rechecks)
        self.const_checks = tuple(const_checks)
        if len(positions) == self.arity:
            self.mode = _MODE_CONTAINS
        elif positions:
            self.mode = _MODE_INDEX
        else:
            self.mode = _MODE_SCAN


def _make_emit(head_parts: tuple[_Part, ...]):
    def emit(store: FactStore, env: list, derived: set) -> None:
        derived.add(tuple(env[x] if f else x for f, x in head_parts))

    return emit


def _make_level(spec: _LevelSpec, checks: tuple[_Check, ...], nxt):
    """The closure running one join level, chaining into ``nxt``.

    Three specializations, chosen at compile time: fully-bound levels
    become a membership test, partially-bound ones an id-bucket lookup
    over the columnar index, unbound ones a row-list scan.
    """
    pred = spec.pred
    arity = spec.arity
    key_parts = spec.key_parts
    positions = spec.positions
    binds = spec.binds
    rechecks = spec.rechecks

    if spec.mode == _MODE_CONTAINS:

        def run_contains(store: FactStore, env: list, derived: set) -> None:
            row = tuple(env[x] if f else x for f, x in key_parts)
            if not store.contains(pred, row):
                return
            for check in checks:
                if not check(store, env):
                    return
            nxt(store, env, derived)

        return run_contains

    # The per-row body is inlined into both loops (instead of a shared
    # closure) to keep one Python call per candidate off the hot path.
    # Index lookups already filtered the key positions, so only fresh
    # binds and repeated variables remain per row.
    if spec.mode == _MODE_INDEX:

        def run_index(store: FactStore, env: list, derived: set) -> None:
            ids = store.lookup_ids(
                pred, positions, tuple(env[x] if f else x for f, x in key_parts)
            )
            if not ids:
                return
            rows = store.row_list(pred)
            for rid in ids:
                row = rows[rid]
                if len(row) != arity:
                    continue
                for p, s in binds:
                    env[s] = row[p]
                ok = True
                for p, s in rechecks:
                    if row[p] != env[s]:
                        ok = False
                        break
                if ok:
                    for check in checks:
                        if not check(store, env):
                            ok = False
                            break
                if ok:
                    nxt(store, env, derived)

        return run_index

    def run_scan(store: FactStore, env: list, derived: set) -> None:
        for row in store.row_list(pred):
            if len(row) != arity:
                continue
            for p, s in binds:
                env[s] = row[p]
            ok = True
            for p, s in rechecks:
                if row[p] != env[s]:
                    ok = False
                    break
            if ok:
                for check in checks:
                    if not check(store, env):
                        ok = False
                        break
            if ok:
                nxt(store, env, derived)

    return run_scan


def _make_delta_entry(spec: _LevelSpec, checks: tuple[_Check, ...], nxt):
    """The first level of the semi-naive variant: enumerate given rows.

    Delta rows arrive from the caller instead of an index lookup, so the
    constants (and any repeated variables) the index would have filtered
    are checked explicitly here.  Nothing is bound before level 0, so
    there are no prior-slot positions to recheck.
    """
    arity = spec.arity
    const_checks = spec.const_checks
    binds = spec.binds
    rechecks = spec.rechecks

    def run_delta(
        store: FactStore, env: list, derived: set, rows
    ) -> None:
        for row in rows:
            if len(row) != arity:
                continue
            ok = True
            for p, v in const_checks:
                if row[p] != v:
                    ok = False
                    break
            if not ok:
                continue
            for p, s in binds:
                env[s] = row[p]
            for p, s in rechecks:
                if row[p] != env[s]:
                    ok = False
                    break
            if not ok:
                continue
            for check in checks:
                if not check(store, env):
                    ok = False
                    break
            if ok:
                nxt(store, env, derived)

    return run_delta


class Kernel:
    """A compiled (rule, join order) pair: full and delta entry points."""

    __slots__ = ("nslots", "_full", "_delta")

    def __init__(self, nslots: int, full, delta) -> None:
        self.nslots = nslots
        self._full = full
        self._delta = delta

    def run_full(self, store: FactStore, derived: set) -> None:
        """Run the full join, adding head tuples to ``derived``."""
        self._full(store, [None] * self.nslots, derived)

    def run_delta(self, store: FactStore, derived: set, rows) -> None:
        """Run the join with level 0 restricted to ``rows`` (the delta)."""
        self._delta(store, [None] * self.nslots, derived, rows)


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
    slot_of: dict = {}
    bound_slots: dict = {}
    specs: list[_LevelSpec] = []
    for info in order:
        spec = _LevelSpec(info.atom, bound_slots, slot_of)
        specs.append(spec)
        for variable in info.variables:
            bound_slots[variable] = slot_of[variable]
    compiled_checks = [
        tuple(compile_check(check, slot_of) for check in checks)
        for checks in checks_at
    ]
    head_parts = _parts(node.rule.head.terms, slot_of)
    # Build the chain innermost-first; levels 1.. are shared between the
    # full and delta entry points (only level 0 differs).
    chain = _make_emit(head_parts)
    for i in range(len(order) - 1, 0, -1):
        chain = _make_level(specs[i], compiled_checks[i], chain)
    full = _make_level(specs[0], compiled_checks[0], chain)
    delta = _make_delta_entry(specs[0], compiled_checks[0], chain)
    return Kernel(len(slot_of), full, delta)
