"""Per-step property monitors: specs compiled for stage-wise checking.

Offline verification (the BSR reductions) answers "can *any* run
violate the property?".  A monitor answers the operational question for
*this* run, one stage at a time -- the paper's audit notion.  Where the
seed-era operational checkers scanned (``check_run_satisfies``
enumerates every binding of the property's variables over the whole
active domain, per stage), monitors compile the property's *violation*
into a datalog program and evaluate it with the indexed, cost-ordered
join machinery of :mod:`repro.datalog.plan`:

* a :class:`TemporalProperty` formula ∀x̄ φ becomes one rule
  ``__violation :- L₁, ..., Lₙ`` per disjunct of the DNF of ¬φ, run
  over (stage output, cumulative state, database);
* an :class:`ErrorFreeness` Tsdi sentence becomes its Theorem 4.1 error
  rules, run over (stage input, prior state, database).

Both programs are flat, their state atoms are monotone, and the
database is static -- exactly the contract of
:class:`~repro.datalog.plan.physical.IncrementalExecutor` -- so each
session's monitor steps via ``execute_delta``: state-only violation
rules extend cached results from the step's new state rows, database-
only rules are cached for the session's life, and only output/input-
touching rules re-join (against tiny per-stage relations).
Formulas outside the compilable fragment (nested quantifiers, unsafe
disjuncts) fall back to the naive structure evaluation, so every
T_past-input sentence remains checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from repro.core.run import log_of_step
from repro.core.spocus import stage_store
from repro.datalog.ast import (
    Atom,
    Constant,
    Inequality,
    NegatedAtom,
    PositiveAtom,
    Program,
    Rule,
    Variable,
)
from repro.datalog.plan import EvalCounters, compile_program, incremental_executor_for
from repro.datalog.safety import check_rule_safety
from repro.errors import SafetyError, SchemaError, SpecError, VerificationError
from repro.logic.fol import (
    And,
    Bottom,
    Eq,
    Formula,
    Not,
    Or,
    Rel,
    Top,
)
from repro.logic.prenex import to_nnf
from repro.logic.structures import Structure
from repro.verify.logvalidity import check_log_validity
from repro.verify.reachability import check_goal_reachability
from repro.verify.tsdi import compile_tsdi

if TYPE_CHECKING:
    from repro.core.spocus import SpocusTransducer
    from repro.relalg.instance import Instance
    from repro.verify.api.specs import PropertySpec

VIOLATION_HEAD = "__violation"


class HistoryView(Sequence):
    """A read-only view of the first ``length`` items of ``head + tail``.

    The online auditor lends monitors its own per-session history
    through these instead of copying it: building a stage costs O(1)
    however long the session has run, and a view keeps showing exactly
    the items that existed when its stage was built (``tail`` only ever
    grows at its end).  Indexing and iteration read through; a slice
    is a tuple.  Copy (``tuple(view)``) whatever must outlive the stage.
    """

    __slots__ = ("_head", "_tail", "_length")

    def __init__(self, head: Sequence, tail: Sequence) -> None:
        self._head = head
        self._tail = tail
        self._length = len(head) + len(tail)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._length)))
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("history index out of range")
        split = len(self._head)
        return self._head[index] if index < split else self._tail[index - split]

    def __iter__(self):
        yield from self._head
        yield from islice(self._tail, self._length - len(self._head))

    def __repr__(self) -> str:
        return f"HistoryView({len(self)} items)"


@dataclass(frozen=True)
class StageView:
    """Everything a monitor may read about one completed step.

    ``step`` is 1-based; ``state_before``/``state_after`` bracket the
    transition; ``inputs_so_far``/``log_so_far`` include the current
    step (their last elements are ``inputs`` and ``log_entry``).  They
    are read-only sequences; the online auditor passes
    :class:`HistoryView` objects over its own history, valid for this
    stage, so a monitor that keeps any of it beyond ``observe`` copies
    it.  ``resume_steps`` counts the leading ``log_so_far`` entries
    whose inputs were never observed (a session resumed mid-run): the
    trailing observed inputs of ``inputs_so_far`` align with the
    trailing log entries from there on.
    """

    step: int
    inputs: "Instance"
    output: "Instance"
    state_before: "Instance"
    state_after: "Instance"
    log_entry: "Instance | None"
    inputs_so_far: Sequence = ()
    log_so_far: Sequence = ()
    resume_steps: int = 0


class StepMonitor:
    """Base class: observe stages, report violation descriptions."""

    #: Does observe() read the ``inputs_so_far`` / ``log_so_far``
    #: histories?  The auditor only hands them (as O(1)
    #: :class:`HistoryView` objects) to monitors that do; the others
    #: see empty tuples.
    needs_history = False

    #: Cumulative count of BSR sentences this monitor has decided; the
    #: auditor reports the per-step delta as ``audit_bsr_decisions``.
    bsr_decisions = 0

    def __init__(self, spec: "PropertySpec") -> None:
        self.spec = spec
        # Monitors of *permanent* violations (invalid log prefix, lost
        # goal) latch here after reporting once: observe() stays quiet
        # to avoid repeating the finding every step, but combinators
        # must still count the spec as violated (see AnyOfMonitor).
        self.latched: str | None = None

    def observe(self, stage: StageView) -> list[str]:
        """Violation descriptions for this stage (empty when clean)."""
        raise NotImplementedError

    def eval_counters(self) -> EvalCounters:
        """Cumulative plan/evaluation counters (zeros when plan-free)."""
        return EvalCounters()


# -- temporal-property compilation --------------------------------------------


def _strip_exists(formula: Formula) -> Formula:
    from repro.logic.fol import Exists

    while isinstance(formula, Exists):
        formula = formula.body
    return formula


def _dnf(formula: Formula) -> "list[list[Formula]] | None":
    """DNF of an NNF, quantifier-free formula as literal lists.

    Returns None when an unsupported node (nested quantifier) appears;
    ``[]`` means ⊥, a ``[]`` member means ⊤.
    """
    if isinstance(formula, Top):
        return [[]]
    if isinstance(formula, Bottom):
        return []
    if isinstance(formula, (Rel, Eq)):
        return [[formula]]
    if isinstance(formula, Not) and isinstance(formula.operand, (Rel, Eq)):
        return [[formula]]
    if isinstance(formula, Or):
        out: list[list[Formula]] = []
        for operand in formula.operands:
            part = _dnf(operand)
            if part is None:
                return None
            out.extend(part)
        return out
    if isinstance(formula, And):
        out = [[]]
        for operand in formula.operands:
            part = _dnf(operand)
            if part is None:
                return None
            out = [left + right for left in out for right in part]
        return out
    return None


def _resolve_equalities(literals: list[Formula]) -> "list[Formula] | None":
    """Eliminate positive equalities by substitution.

    Returns the simplified literal list, or None when the conjunct is
    unsatisfiable (two distinct constants equated).
    """
    work = list(literals)
    changed = True
    while changed:
        changed = False
        for i, literal in enumerate(work):
            if not isinstance(literal, Eq):
                continue
            left, right = literal.left, literal.right
            if isinstance(left, Constant) and isinstance(right, Constant):
                if left.value != right.value:
                    return None
                work.pop(i)
            elif isinstance(left, Variable):
                work.pop(i)
                binding = {left: right}
                work = [f.substitute(binding) for f in work]
            elif isinstance(right, Variable):
                work.pop(i)
                binding = {right: left}
                work = [f.substitute(binding) for f in work]
            else:  # pragma: no cover - terms are variables or constants
                return None
            changed = True
            break
    return work


def compile_temporal_violation(
    transducer: "SpocusTransducer", formula: Formula
) -> "Program | None":
    """The violation program of a T_past-input sentence, or None.

    Produces one safe rule ``__violation :- ...`` per satisfiable DNF
    disjunct of ¬formula, over the transducer's output, state, and
    database relations (state atoms read the post-stage state, matching
    Theorem 3.3's inclusive "sometime past").  Returns None when the
    formula falls outside the compilable fragment, in which case the
    caller uses the naive structure evaluation.
    """
    schema = transducer.schema
    known = (
        set(schema.outputs.names)
        | set(schema.state.names)
        | set(schema.database.names)
    )
    body = _strip_exists(to_nnf(Not(formula)))
    disjuncts = _dnf(body)
    if disjuncts is None:
        return None
    rules: list[Rule] = []
    head = Atom(VIOLATION_HEAD, ())
    for disjunct in disjuncts:
        resolved = _resolve_equalities(disjunct)
        if resolved is None:
            continue  # unsatisfiable conjunct
        literals = []
        for literal in resolved:
            if isinstance(literal, Rel):
                if literal.predicate not in known:
                    raise SpecError(
                        f"temporal property literal over unknown relation "
                        f"{literal.predicate!r} (allowed: output, state, "
                        "database)"
                    )
                literals.append(PositiveAtom(Atom(literal.predicate, literal.terms)))
            elif isinstance(literal, Not) and isinstance(literal.operand, Rel):
                inner = literal.operand
                if inner.predicate not in known:
                    raise SpecError(
                        f"temporal property literal over unknown relation "
                        f"{inner.predicate!r} (allowed: output, state, "
                        "database)"
                    )
                literals.append(NegatedAtom(Atom(inner.predicate, inner.terms)))
            elif isinstance(literal, Not) and isinstance(literal.operand, Eq):
                eq = literal.operand
                literals.append(Inequality(eq.left, eq.right))
            else:  # pragma: no cover - _dnf only yields these shapes
                return None
        rule = Rule(head, tuple(literals))
        try:
            check_rule_safety(rule)
        except SafetyError:
            return None  # unsafe disjunct: fall back to naive evaluation
        rules.append(rule)
    return Program(tuple(rules))


def _stage_structure(
    transducer: "SpocusTransducer",
    database: "Instance",
    stage: StageView,
    extra_constants,
) -> Structure:
    """The naive one-stage structure (Theorem 3.3 evaluation context)."""
    relations: dict[str, set[tuple]] = {}
    for rel in transducer.schema.database:
        relations[rel.name] = set(database[rel.name])
    for rel in transducer.schema.outputs:
        relations[rel.name] = set(stage.output[rel.name])
    for name in transducer.schema.state.names:
        relations[name] = set(stage.state_after[name])
    domain: set = set()
    for rows in relations.values():
        for row in rows:
            domain.update(row)
    domain |= set(extra_constants)
    if not domain:
        domain = {"@default"}
    return Structure.of(domain, relations)


class TemporalMonitor(StepMonitor):
    """Stage-wise checking of a T_past-input sentence.

    Plan-backed when the violation compiles (the common case); the
    executor steps the violation program incrementally, treating
    outputs as volatile and cumulative state as monotone.
    """

    def __init__(self, spec, transducer, database: "Instance") -> None:
        super().__init__(spec)
        self._transducer = transducer
        self._database = database
        self._program = compile_temporal_violation(transducer, spec.formula)
        self._nnf = to_nnf(spec.formula)
        self._constants = set(spec.formula.constants())
        self._executor = None
        if self._program is not None and len(self._program) > 0:
            self._executor = incremental_executor_for(
                self._program,
                volatile=transducer.schema.outputs.names,
                monotone=transducer.schema.state.names,
            )

    @property
    def plan_backed(self) -> bool:
        return self._program is not None

    def eval_counters(self) -> EvalCounters:
        if self._executor is None:
            return EvalCounters()
        return self._executor.counters.copy()

    def observe(self, stage: StageView) -> list[str]:
        if self._program is not None and len(self._program) == 0:
            return []  # the negation simplified to ⊥: a tautology
        if self._program is None:
            structure = _stage_structure(
                self._transducer, self._database, stage, self._constants
            )
            if structure.evaluate(self._nnf):
                return []
        else:
            store = stage_store(
                self._transducer, self._database, stage.output, stage.state_after
            )
            monotone = {
                name: stage.state_after[name]
                for name in self._transducer.schema.state.names
            }
            if self._executor is not None:
                derived = self._executor.step(store, monotone)
            else:  # pragma: no cover - flat programs always get an executor
                derived = compile_program(self._program).execute(store)
            if not derived.get(VIOLATION_HEAD):
                return []
        return [f"stage {stage.step} violates: {self.spec.describe()}"]


# -- error-freeness -----------------------------------------------------------


class ErrorFreenessMonitor(StepMonitor):
    """Watch for ``error`` outputs, or enforce a Tsdi discipline.

    With a sentence, the Theorem 4.1 error rules are evaluated against
    each stage's input and prior state (inputs volatile, state
    monotone, database static), again via the incremental executor.
    """

    def __init__(self, spec, transducer, database: "Instance") -> None:
        super().__init__(spec)
        self._transducer = transducer
        self._database = database
        self._executor = None
        if spec.sentence is None:
            if spec.error_relation not in transducer.schema.outputs:
                raise SpecError(
                    f"ErrorFreeness: {spec.error_relation!r} is not an "
                    "output relation of the transducer"
                )
        else:
            head = Atom(VIOLATION_HEAD, ())
            rules = tuple(
                Rule(head, rule.body) for rule in compile_tsdi(spec.sentence)
            )
            self._program = Program(rules)
            for rule in rules:
                for atom in rule.positive_atoms() + rule.negated_atoms():
                    if atom.predicate not in transducer.schema.visible_schema():
                        raise SpecError(
                            f"Tsdi literal over unknown relation "
                            f"{atom.predicate!r}"
                        )
            self._executor = incremental_executor_for(
                self._program,
                volatile=transducer.schema.inputs.names,
                monotone=transducer.schema.state.names,
            )

    def eval_counters(self) -> EvalCounters:
        if self._executor is None:
            return EvalCounters()
        return self._executor.counters.copy()

    def observe(self, stage: StageView) -> list[str]:
        spec = self.spec
        if spec.sentence is None:
            rows = stage.output[spec.error_relation]
            if rows:
                return [
                    f"stage {stage.step} output {spec.error_relation!r} is "
                    f"non-empty ({len(rows)} fact(s))"
                ]
            return []
        store = stage_store(
            self._transducer, self._database, stage.inputs, stage.state_before
        )
        monotone = {
            name: stage.state_before[name]
            for name in self._transducer.schema.state.names
        }
        if self._executor is not None:
            derived = self._executor.step(store, monotone)
        else:  # pragma: no cover - compiled Tsdi programs are flat
            derived = compile_program(self._program).execute(store)
        if derived.get(VIOLATION_HEAD):
            return [
                f"stage {stage.step} input violates the Tsdi discipline(s)"
            ]
        return []


# -- BSR-backed monitors ------------------------------------------------------


class LogValidityMonitor(StepMonitor):
    """Audit the session's growing log against a reference transducer.

    Witness-first.  Theorem 3.1 asks whether *some* input sequence makes
    the reference produce the log, and the session's own observed
    inputs are the obvious candidate.  The monitor keeps its own run of
    the reference -- step context, cumulative state, and the length of
    the log prefix reproduced so far (the *anchor*) -- and replays every
    not-yet-replayed stage's inputs through it.  When each produced
    entry equals the observed one, the replay is a concrete witness and
    the prefix is valid without deciding any sentence.  The replay
    never reads the service's ``state_before``/``state_after``, so a
    corrupted or rehydrated serving state cannot vouch for itself.

    Only when the replay cannot answer -- an entry differs, an input
    does not fit the reference's schema, or a resumed session's
    pre-restart inputs are unknown -- is the whole prefix decided by
    the complete BSR procedure (:func:`check_log_validity`).  A valid
    verdict re-anchors the replay on the decoded witness.  A produced
    log can only become invalid when the serving implementation
    diverges from the reference model (the audit scenario); since an
    invalid prefix never becomes valid again, the monitor latches on
    the first violation.
    """

    needs_history = True

    def __init__(self, spec, reference, database: "Instance") -> None:
        super().__init__(spec)
        self._reference = reference
        self._database = database
        # The reference run, started on first use.  ``_retired`` keeps
        # the evaluation counters of step contexts a re-anchor replaced.
        self._replay_database: "Instance | None" = None
        self._context = None
        self._state: "Instance | None" = None
        self._anchor = 0
        self._retired = EvalCounters()

    def eval_counters(self) -> EvalCounters:
        if self._context is None:
            return self._retired.copy()
        return self._retired + self._context.counters

    def observe(self, stage: StageView) -> list[str]:
        if self.latched or self._replay(stage):
            return []
        from repro.verify.api.specs import coerce_log_entries

        entries = coerce_log_entries(self._reference, stage.log_so_far)
        self.bsr_decisions += 1
        result = check_log_validity(
            self._reference, self._database, entries, replay=False
        )
        if result.valid:
            self._reanchor(result.witness_inputs, entries)
            return []
        self.latched = (
            f"log through stage {stage.step} is not a valid log of the "
            "reference transducer"
        )
        return [self.latched]

    def _replay(self, stage: StageView) -> bool:
        """Reproduce the unreplayed log entries; False when one differs."""
        from repro.verify.api.specs import coerce_log_entries

        if self._anchor < stage.resume_steps:
            return False
        if self._state is None:
            self._restart()
        reference = self._reference
        log = stage.log_so_far
        offset = len(stage.inputs_so_far) - len(log)
        try:
            for index in range(self._anchor, len(log)):
                inputs = reference.coerce_input(
                    stage.inputs_so_far[index + offset]
                )
                (expected,) = coerce_log_entries(reference, (log[index],))
                if not self._advance(inputs, expected):
                    return False
        except SchemaError:
            return False
        return True

    def _reanchor(self, witness: "list[Instance]", entries) -> None:
        """Rebuild the reference run from a decoded witness."""
        self._restart()
        for inputs, expected in zip(witness, entries):
            if not self._advance(inputs, expected):
                raise VerificationError(
                    "internal error: decoded witness does not reproduce the "
                    "log (encoder/semantics mismatch)"
                )

    def _restart(self) -> None:
        reference = self._reference
        if self._replay_database is None:
            self._replay_database = reference.coerce_database(self._database)
        self._retired = self.eval_counters()
        self._context = reference.new_step_context(self._replay_database)
        self._state = reference.initial_state()
        self._anchor = 0

    def _advance(self, inputs: "Instance", expected: "Instance") -> bool:
        """One reference step, kept only when it logs ``expected``."""
        reference = self._reference
        database = self._replay_database
        output = reference.output_with_context(
            self._context, inputs, self._state, database
        )
        if log_of_step(inputs, output, reference.schema.log_schema) != expected:
            return False
        self._state = reference.state_function(inputs, self._state, database)
        self._anchor += 1
        return True


class GoalReachabilityMonitor(StepMonitor):
    """Progress auditing: is the goal still attainable after each stage?

    Continuations only shrink as inputs accumulate, so unreachability
    is permanent and the monitor latches on the first violation.
    """

    needs_history = True

    def __init__(self, spec, reference, database: "Instance") -> None:
        super().__init__(spec)
        self._reference = reference
        self._database = database

    def observe(self, stage: StageView) -> list[str]:
        if self.latched:
            return []
        self.bsr_decisions += 1
        result = check_goal_reachability(
            self._reference,
            self._database,
            self.spec.goal,
            prefix=stage.inputs_so_far,
            replay=False,
        )
        if result.reachable:
            return []
        self.latched = (
            f"goal no longer reachable after stage {stage.step}: "
            f"{self.spec.describe()}"
        )
        return [self.latched]


# -- combinators --------------------------------------------------------------


class AllOfMonitor(StepMonitor):
    def __init__(self, spec, monitors: Sequence[StepMonitor]) -> None:
        super().__init__(spec)
        self.monitors = list(monitors)
        self.needs_history = any(m.needs_history for m in self.monitors)

    def eval_counters(self) -> EvalCounters:
        return sum((m.eval_counters() for m in self.monitors), EvalCounters())

    @property
    def bsr_decisions(self) -> int:
        return sum(m.bsr_decisions for m in self.monitors)

    def observe(self, stage: StageView) -> list[str]:
        out: list[str] = []
        for monitor in self.monitors:
            out.extend(monitor.observe(stage))
        return out


class AnyOfMonitor(StepMonitor):
    """A stage violates an AnyOf only when every child violates it.

    A child latched on a permanent violation (invalid log, lost goal)
    counts as violating even though it stopped repeating its finding --
    otherwise a tripped child would read as "holding" and mask the
    other children's ongoing violations.
    """

    def __init__(self, spec, monitors: Sequence[StepMonitor]) -> None:
        super().__init__(spec)
        self.monitors = list(monitors)
        self.needs_history = any(m.needs_history for m in self.monitors)

    def eval_counters(self) -> EvalCounters:
        return sum((m.eval_counters() for m in self.monitors), EvalCounters())

    @property
    def bsr_decisions(self) -> int:
        return sum(m.bsr_decisions for m in self.monitors)

    def observe(self, stage: StageView) -> list[str]:
        if self.latched:
            return []
        all_violations: list[str] = []
        for monitor in self.monitors:
            violations = monitor.observe(stage)
            if not violations and monitor.latched:
                violations = [monitor.latched]
            if not violations:
                return []
            all_violations.extend(violations)
        combined = "every alternative is violated: " + "; ".join(all_violations)
        if all(monitor.latched for monitor in self.monitors):
            # Every alternative is permanently lost: report once.
            self.latched = combined
        return [combined]


def build_monitor(
    spec: "PropertySpec",
    transducer,
    database: "Instance",
    *,
    reference=None,
) -> StepMonitor:
    """Compile one spec into a per-session step monitor.

    ``transducer`` is the implementation actually serving the steps;
    ``reference`` (default: the same transducer) is the specification
    model log-validity and reachability audits are decided against.
    """
    from repro.verify.api import specs as s

    if reference is None:
        reference = transducer
    if isinstance(spec, s.TemporalProperty):
        return TemporalMonitor(spec, transducer, database)
    if isinstance(spec, s.ErrorFreeness):
        return ErrorFreenessMonitor(spec, transducer, database)
    if isinstance(spec, s.LogValidity):
        return LogValidityMonitor(spec, reference, database)
    if isinstance(spec, s.GoalReachability):
        return GoalReachabilityMonitor(spec, reference, database)
    if isinstance(spec, s.AllOf):
        return AllOfMonitor(
            spec,
            [
                build_monitor(child, transducer, database, reference=reference)
                for child in spec.specs
            ],
        )
    if isinstance(spec, s.AnyOf):
        return AnyOfMonitor(
            spec,
            [
                build_monitor(child, transducer, database, reference=reference)
                for child in spec.specs
            ],
        )
    raise SpecError(f"no monitor for spec type {type(spec).__name__}")
