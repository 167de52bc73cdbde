"""One transducer run in progress.

A :class:`Session` wraps the run semantics of Section 2.2 as an
incremental object: instead of materializing a whole :class:`Run` from a
complete input sequence, it holds the current cumulative state and
advances one input instance at a time.  Sessions are created and driven
by a :class:`~repro.pods.service.PodService`; they never touch the
shared database except through the transducer's (read-only, indexed)
view of it.

A Spocus run continues from its cumulative state and step count alone
(Section 3.1), so that pair is a session's whole forward-going state:
a session can be reconstructed from the state and step count of a
:class:`~repro.pods.api.SessionSnapshot` taken after any step, and
stepping continues as if the process had never stopped.  The log
``(I_i ∪ O_i)|log`` of Section 2.2 exists to be read, and its one home
is the session's :class:`~repro.pods.store.SessionStore`, which every
step writes through: :meth:`Session.log` and :meth:`Session.snapshot`
read it there, on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.run import log_of_step
from repro.core.transducer import InputLike, RelationalTransducer
from repro.datalog.plan import EvalCounters
from repro.errors import SessionError
from repro.pods.api import SessionSnapshot, StoredLog, facts_of
from repro.relalg.instance import Instance
from repro.relalg.schema import DatabaseSchema


@dataclass(frozen=True)
class SessionLog:
    """The log produced by a session so far: step-aligned entries."""

    session_id: int | str
    entries: tuple[Instance, ...]

    def __len__(self) -> int:
        return len(self.entries)


def stored_log(
    store, session_id: str, steps: int, log_schema: DatabaseSchema
) -> SessionLog:
    """The log of a session's steps 1..``steps``, read from ``store``.

    Raises :class:`~repro.errors.SessionError` when the store holds no
    such session, or fewer entries than steps: a session recorded with
    ``keep_logs=False`` has no whole log to give.
    """
    entries = store.load_log(session_id, steps)
    if entries is None:
        raise SessionError(f"no such session: {session_id!r}")
    if len(entries) != steps:
        raise SessionError(
            f"cannot read the log of {session_id!r} with keep_logs=True:"
            f" the store has {len(entries)} log entries for {steps} steps"
            " (was it recorded with keep_logs=False?)"
        )
    return SessionLog(
        session_id, tuple(Instance(log_schema, entry) for entry in entries)
    )


class Session:
    """An independent run of a transducer over the shared database.

    ``session_id`` is unique within the owning service.  The session
    keeps only what its next step needs: the state after the last step
    and the step count, plus the last step's inputs and log entry for
    the service's write-through and audit.  Outputs are returned to the
    caller per step, not retained, and the log lives in ``store``.

    ``state`` and ``steps`` seed a restored session; leaving them at
    their defaults starts a fresh run (state S_0, step 0).  ``store``
    is the :class:`~repro.pods.store.SessionStore` the owning service
    records this session's steps in; a session without one has no log
    to read.

    Sessions are NOT thread-safe: a session's steps must be applied
    sequentially by one thread at a time.  The service's batch path
    (``submit_batch``) upholds this by stepping its batch serially, and
    callers that call ``submit`` from their own threads keep each
    session on one thread; everything a session *shares* (the database
    instance, its indexed store, the compiled plan) is read-only.
    """

    __slots__ = ("session_id", "_transducer", "_database", "_state",
                 "_steps", "_store", "_keep_log", "_ctx", "_last_inputs",
                 "_last_log_entry")

    def __init__(
        self,
        session_id: int | str,
        transducer: RelationalTransducer,
        database: Instance,
        keep_log: bool = True,
        *,
        state: Instance | None = None,
        steps: int = 0,
        store=None,
    ) -> None:
        self.session_id = session_id
        self._transducer = transducer
        self._database = database
        self._state = state if state is not None else transducer.initial_state()
        self._steps = steps
        self._store = store
        self._keep_log = keep_log
        # Per-session evaluation context: compiled-plan reuse plus
        # cross-step incremental (delta) evaluation where the transducer
        # supports it.  Restored sessions get a fresh context; its first
        # step simply pays one full evaluation.
        self._ctx = transducer.new_step_context(database)
        self._last_inputs: Instance | None = None
        self._last_log_entry: Instance | None = None

    @property
    def state(self) -> Instance:
        return self._state

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def last_log_entry(self) -> Instance | None:
        """The log entry of the most recent step.

        None when logging is off, and before the first step of this
        process's lifetime (restored sessions included): earlier
        entries live in the store.
        """
        return self._last_log_entry

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
            self._last_log_entry = log_of_step(
                current, output, transducer.schema.log_schema
            )
        return output

    def log(self) -> SessionLog:
        """The session's log so far, read from its store (empty when
        ``keep_log`` is off).

        Raises :class:`~repro.errors.SessionError` when the store holds
        fewer entries than steps (see :func:`stored_log`).
        """
        if not self._keep_log:
            return SessionLog(self.session_id, ())
        return stored_log(
            self._log_store(),
            str(self.session_id),
            self._steps,
            self._transducer.schema.log_schema,
        )

    def snapshot(self) -> SessionSnapshot:
        """This session's persistent state, in plain-facts wire form.

        Exactly what a :class:`~repro.pods.store.SessionStore` would
        reproduce on :meth:`load` after this session's last recorded
        step: a restored session built from it continues the run as if
        the process had never stopped.  The hot-session cache relies on
        this equivalence -- evicting a session and rehydrating it from
        the store is observationally the same as keeping it resident.
        The log is read from the store on first use (empty when
        ``keep_log`` is off).
        """
        session_id = str(self.session_id)
        return SessionSnapshot(
            session_id,
            self._steps,
            facts_of(self._state),
            StoredLog(self._log_store(), session_id, self._steps)
            if self._keep_log
            else (),
        )

    def _log_store(self):
        if self._store is None:
            raise SessionError(
                f"session {self.session_id!r} has no store to read its"
                " log from"
            )
        return self._store

    def eval_counters(self) -> EvalCounters:
        """This session's cumulative plan/evaluation counters.

        Zeroes when the transducer steps without a context (e.g. a
        :class:`~repro.core.transducer.FunctionalTransducer`).
        """
        counters = getattr(self._ctx, "counters", None)
        if counters is None:
            return EvalCounters()
        return counters.copy()
