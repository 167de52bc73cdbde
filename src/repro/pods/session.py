"""One transducer run in progress.

A :class:`Session` wraps the run semantics of Section 2.2 as an
incremental object: instead of materializing a whole :class:`Run` from a
complete input sequence, it holds the current cumulative state and
advances one input instance at a time, recording the per-step log
entries.  Sessions are created and driven by a
:class:`~repro.pods.service.PodService`; they never touch the shared
database except through the transducer's (read-only, indexed) view of
it.

A session's forward-going state is exactly (cumulative state, step
count, log so far), so a session can be reconstructed from a
:class:`~repro.pods.api.SessionSnapshot` taken after any step: pass the
restored pieces to the constructor and stepping continues as if the
process had never stopped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.run import log_of_step
from repro.core.transducer import InputLike, RelationalTransducer
from repro.datalog.plan import EvalCounters
from repro.pods.api import SessionSnapshot, facts_of
from repro.relalg.instance import Instance


@dataclass(frozen=True)
class SessionLog:
    """The log produced by a session so far: step-aligned entries."""

    session_id: int | str
    entries: tuple[Instance, ...]

    def __len__(self) -> int:
        return len(self.entries)


class Session:
    """An independent run of a transducer over the shared database.

    ``session_id`` is unique within the owning service.  The session
    keeps only what the run semantics needs going forward: the state
    after the last step, the step count, and (optionally) the log.
    Outputs are returned to the caller per step, not retained.

    ``state``, ``steps``, and ``log`` seed a restored session; leaving
    them at their defaults starts a fresh run (state S_0, step 0).

    Sessions are NOT thread-safe: a session's steps must be applied
    sequentially by one thread at a time.  The service's batch path
    (``submit_batch``) upholds this by stepping its batch serially, and
    callers that call ``submit`` from their own threads keep each
    session on one thread; everything a session *shares* (the database
    instance, its indexed store, the compiled plan) is read-only.
    """

    __slots__ = ("session_id", "_transducer", "_database", "_state",
                 "_steps", "_log", "_keep_log", "_ctx", "_last_inputs")

    def __init__(
        self,
        session_id: int | str,
        transducer: RelationalTransducer,
        database: Instance,
        keep_log: bool = True,
        *,
        state: Instance | None = None,
        steps: int = 0,
        log: Iterable[Instance] = (),
    ) -> None:
        self.session_id = session_id
        self._transducer = transducer
        self._database = database
        self._state = state if state is not None else transducer.initial_state()
        self._steps = steps
        self._log: list[Instance] = list(log)
        self._keep_log = keep_log
        # Per-session evaluation context: compiled-plan reuse plus
        # cross-step incremental (delta) evaluation where the transducer
        # supports it.  Restored sessions get a fresh context; its first
        # step simply pays one full evaluation.
        self._ctx = transducer.new_step_context(database)
        self._last_inputs: Instance | None = None

    @property
    def state(self) -> Instance:
        return self._state

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def last_log_entry(self) -> Instance | None:
        """The most recent log entry (None when empty or logging off)."""
        return self._log[-1] if self._log else None

    @property
    def last_inputs(self) -> Instance | None:
        """The (coerced) input instance of the most recent step.

        Consumed by the audit hook in ``PodService.submit()`` so
        monitors see exactly the instance the step evaluated, without
        re-coercing the caller's raw facts.  None before the first step
        of this process's lifetime (restored sessions included).
        """
        return self._last_inputs

    def step(self, inputs: InputLike) -> Instance:
        """Consume one input instance; return the step's output."""
        transducer = self._transducer
        current = transducer.coerce_input(inputs)
        self._last_inputs = current
        output = transducer.output_with_context(
            self._ctx, current, self._state, self._database
        )
        self._state = transducer.state_function(
            current, self._state, self._database
        )
        self._steps += 1
        if self._keep_log:
            self._log.append(
                log_of_step(
                    current, output, transducer.schema.log_schema
                )
            )
        return output

    def log(self) -> SessionLog:
        """The session's log so far (empty when ``keep_log`` is off)."""
        return SessionLog(self.session_id, tuple(self._log))

    def snapshot(self) -> SessionSnapshot:
        """This session's persistent state, in plain-facts wire form.

        Exactly what a :class:`~repro.pods.store.SessionStore` would
        reproduce on :meth:`load` after this session's last recorded
        step: a restored session built from it continues the run as if
        the process had never stopped.  The hot-session cache relies on
        this equivalence -- evicting a session and rehydrating it from
        the store is observationally the same as keeping it resident.
        """
        return SessionSnapshot(
            str(self.session_id),
            self._steps,
            facts_of(self._state),
            tuple(facts_of(entry) for entry in self._log),
        )

    def eval_counters(self) -> EvalCounters:
        """This session's cumulative plan/evaluation counters.

        Zeroes when the transducer steps without a context (e.g. a
        :class:`~repro.core.transducer.FunctionalTransducer`).
        """
        counters = getattr(self._ctx, "counters", None)
        if counters is None:
            return EvalCounters()
        return counters.copy()
