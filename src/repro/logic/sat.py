"""A DPLL SAT solver with two-watched-literal propagation.

Built from scratch for this library: the BSR decision procedure grounds
Bernays-Schoenfinkel sentences to CNF and this solver decides them.  The
design is classical DPLL with chronological backtracking, two watched
literals per clause for efficient unit propagation, and a
static-frequency branching heuristic with phase saving.  No clause
learning -- groundings in this library's workloads are shallow and wide,
where propagation quality matters much more than learning.

Literals follow the DIMACS convention: variable ``v`` is the positive
literal ``+v`` and its negation ``-v``; variables are numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass
class Solution:
    """Result of a solver run.

    ``satisfiable`` tells the outcome; ``assignment`` maps every variable
    to a boolean when satisfiable (unconstrained variables default to
    False); ``decisions``, ``propagations`` and ``conflicts`` are search
    statistics used by the scaling benchmarks.
    """

    satisfiable: bool
    assignment: dict[int, bool]
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0


class SatSolver:
    """Decide satisfiability of a CNF clause list."""

    def __init__(self, clauses: Iterable[Sequence[int]], num_vars: int | None = None):
        self._clauses: list[list[int]] = []
        max_var = 0
        self._has_empty = False
        for clause in clauses:
            literals = set(clause)
            if any(-lit in literals for lit in literals):
                continue  # tautology
            unique = sorted(literals, key=abs)
            if not unique:
                self._has_empty = True
                continue
            for lit in unique:
                max_var = max(max_var, abs(lit))
            self._clauses.append(unique)
        self._num_vars = max(max_var, num_vars or 0)

    def solve(self) -> Solution:
        if self._has_empty:
            return Solution(False, {})
        n = self._num_vars
        # assignment[v] in (None, True, False)
        value: list[bool | None] = [None] * (n + 1)
        phase: list[bool] = [False] * (n + 1)
        # Watched literals: watch_list[lit-index] -> clause indices.
        watch_list: dict[int, list[int]] = {}
        watches: list[list[int]] = []  # per clause, the two watched literals

        def watch(lit: int, clause_index: int) -> None:
            watch_list.setdefault(lit, []).append(clause_index)

        units: list[int] = []
        for index, clause in enumerate(self._clauses):
            if len(clause) == 1:
                watches.append([clause[0], clause[0]])
                units.append(clause[0])
            else:
                watches.append([clause[0], clause[1]])
                watch(clause[0], index)
                watch(clause[1], index)

        # Branching heuristic: static literal frequency.
        frequency = [0] * (n + 1)
        polarity_balance = [0] * (n + 1)
        for clause in self._clauses:
            for lit in clause:
                frequency[abs(lit)] += 1
                polarity_balance[abs(lit)] += 1 if lit > 0 else -1
        order = sorted(
            range(1, n + 1), key=lambda v: -frequency[v]
        )
        for v in range(1, n + 1):
            phase[v] = polarity_balance[v] >= 0

        trail: list[int] = []
        # Decision records: (trail length before decision, decided literal,
        # whether the complement was already tried).
        decisions_stack: list[tuple[int, int, bool]] = []
        stats_decisions = 0
        stats_propagations = 0
        stats_conflicts = 0

        def lit_value(lit: int) -> bool | None:
            v = value[abs(lit)]
            if v is None:
                return None
            return v if lit > 0 else not v

        def assign(lit: int) -> None:
            value[abs(lit)] = lit > 0
            phase[abs(lit)] = lit > 0
            trail.append(lit)

        def propagate(queue: list[int]) -> bool:
            """Assign queued literals and propagate; False on conflict."""
            nonlocal stats_propagations
            for lit in queue:
                current = lit_value(lit)
                if current is False:
                    return False
                if current is None:
                    assign(lit)
            # Re-scan from the units just placed on the trail.
            pending = list(queue)
            while pending:
                lit = pending.pop()
                stats_propagations += 1
                falsified = -lit
                clause_ids = watch_list.get(falsified)
                if not clause_ids:
                    continue
                still_watching: list[int] = []
                conflict = False
                for position, clause_index in enumerate(clause_ids):
                    clause = self._clauses[clause_index]
                    pair = watches[clause_index]
                    other = pair[0] if pair[1] == falsified else pair[1]
                    if lit_value(other) is True:
                        still_watching.append(clause_index)
                        continue
                    # Find a replacement watch.
                    replacement = None
                    for candidate in clause:
                        if candidate == other or candidate == falsified:
                            continue
                        if lit_value(candidate) is not False:
                            replacement = candidate
                            break
                    if replacement is not None:
                        if pair[0] == falsified:
                            pair[0] = replacement
                        else:
                            pair[1] = replacement
                        watch(replacement, clause_index)
                        continue
                    # No replacement: clause is unit or conflicting.
                    still_watching.append(clause_index)
                    other_value = lit_value(other)
                    if other_value is False:
                        # Keep the unprocessed tail watched before bailing.
                        still_watching.extend(clause_ids[position + 1:])
                        conflict = True
                        break
                    if other_value is None:
                        assign(other)
                        pending.append(other)
                watch_list[falsified] = still_watching
                if conflict:
                    return False
            return True

        # Initial unit propagation.
        initial = []
        seen_units = set()
        for lit in units:
            if -lit in seen_units:
                return Solution(False, {}, conflicts=1)
            if lit not in seen_units:
                seen_units.add(lit)
                initial.append(lit)
        if not propagate(initial):
            return Solution(False, {}, conflicts=1)

        def pick_branch() -> int | None:
            for v in order:
                if value[v] is None:
                    return v if phase[v] else -v
            return None

        while True:
            lit = pick_branch()
            if lit is None:
                assignment = {
                    v: bool(value[v]) if value[v] is not None else False
                    for v in range(1, n + 1)
                }
                return Solution(
                    True,
                    assignment,
                    decisions=stats_decisions,
                    propagations=stats_propagations,
                    conflicts=stats_conflicts,
                )
            stats_decisions += 1
            decisions_stack.append((len(trail), lit, False))
            ok = propagate([lit])
            while not ok:
                stats_conflicts += 1
                # Chronological backtracking with complement flip.
                flipped_lit = None
                while decisions_stack:
                    mark, decided, tried = decisions_stack.pop()
                    while len(trail) > mark:
                        undo = trail.pop()
                        value[abs(undo)] = None
                    if not tried:
                        flipped_lit = -decided
                        decisions_stack.append((mark, flipped_lit, True))
                        break
                if flipped_lit is None:
                    return Solution(
                        False,
                        {},
                        decisions=stats_decisions,
                        propagations=stats_propagations,
                        conflicts=stats_conflicts,
                    )
                ok = propagate([flipped_lit])


def solve_clauses(
    clauses: Iterable[Sequence[int]], num_vars: int | None = None
) -> Solution:
    """One-shot convenience wrapper around :class:`SatSolver`."""
    return SatSolver(clauses, num_vars).solve()


def verify_assignment(
    clauses: Iterable[Sequence[int]], assignment: dict[int, bool]
) -> bool:
    """Check that ``assignment`` satisfies every clause (used in tests)."""

    def lit_true(lit: int) -> bool:
        v = assignment.get(abs(lit), False)
        return v if lit > 0 else not v

    return all(any(lit_true(lit) for lit in clause) for clause in clauses)
