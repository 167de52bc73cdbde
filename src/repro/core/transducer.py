"""The general relational transducer model (Section 2.2).

A relational transducer is a transducer schema together with a state
function σ and an output function ω.  The base class implements the run
semantics; subclasses supply the two functions.  The unrestricted
:class:`FunctionalTransducer` accepts arbitrary Python callables --
useful for tests and for demonstrating why unrestricted transducers are
unverifiable -- while :class:`~repro.core.spocus.SpocusTransducer`
implements the restricted class the paper's results are about.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import SchemaError
from repro.core.run import Run, log_of_step
from repro.core.schema import TransducerSchema
from repro.relalg.indexes import FactStore
from repro.relalg.instance import Instance


InputLike = Instance | Mapping[str, Iterable[tuple]]


class RelationalTransducer:
    """Base class implementing the run semantics of Section 2.2.

    Subclasses must implement :meth:`state_function` (σ) and
    :meth:`output_function` (ω).  Both receive the current input, the
    *previous* state, and the database, exactly as in the paper:
    ``S_i = σ(I_i, S_{i-1}, D)`` and ``O_i = ω(I_i, S_{i-1}, D)``.
    """

    _DB_CACHE_SLOTS = 8

    #: When True (the default), sessions and runs may use a per-session
    #: step context (compiled-plan reuse + cross-step incremental
    #: evaluation) where the subclass supports one.  Benchmarks flip it
    #: off to measure full per-step re-evaluation.
    incremental_stepping = True

    def __init__(self, schema: TransducerSchema) -> None:
        self._schema = schema
        # id(instance) -> (instance, store); the instance reference keeps
        # the id stable for as long as the entry lives.
        self._db_store_cache: dict[int, tuple[Instance, FactStore]] = {}

    @property
    def schema(self) -> TransducerSchema:
        return self._schema

    def database_store(self, database: Instance) -> FactStore:
        """A shared, lazily indexed view of ``database``'s facts.

        Recently seen database instances are cached (keyed by identity,
        a few slots, oldest evicted), so every step of a run -- and
        every session of a :class:`~repro.pods.service.PodService`
        stepping over one shared catalog -- reuses the same hash indexes
        instead of rebuilding them per evaluation, even when one
        transducer alternates between several databases.
        """
        cached = self._db_store_cache.get(id(database))
        if cached is not None and cached[0] is database:
            return cached[1]
        # intern=True: the catalog is long-lived and shared by every
        # session, so its constants seed the process-wide intern pools
        # once, and per-step facts mentioning catalog values hit the
        # identity fast path in joins.
        store = FactStore(
            {name: database[name] for name in database.schema.names},
            intern=True,
        )
        if len(self._db_store_cache) >= self._DB_CACHE_SLOTS:
            self._db_store_cache.pop(next(iter(self._db_store_cache)))
        self._db_store_cache[id(database)] = (database, store)
        return store

    # -- to be provided by subclasses ---------------------------------------------

    def state_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        raise NotImplementedError

    def output_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        raise NotImplementedError

    # -- per-session step contexts --------------------------------------------------

    def new_step_context(self, database: Instance):
        """A per-session evaluation context, or ``None``.

        Subclasses whose output function is a datalog program return an
        object (e.g. a
        :class:`~repro.datalog.plan.physical.IncrementalExecutor`) that
        caches the compiled plan and per-rule results across the steps
        of ONE session over ONE database; the base class has nothing to
        cache.  Contexts must be observationally transparent: stepping
        with one yields exactly the outputs of :meth:`output_function`.
        """
        return None

    def output_with_context(
        self, ctx, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        """ω with an optional step context (default: ignore it)."""
        return self.output_function(inputs, state, database)

    # -- run semantics --------------------------------------------------------------

    def initial_state(self) -> Instance:
        """S_0: all state relations empty."""
        return Instance.empty(self._schema.state)

    def coerce_input(self, value: InputLike) -> Instance:
        """Accept an instance or a mapping of relation name to tuples."""
        if isinstance(value, Instance):
            if value.schema != self._schema.inputs:
                return value.project_onto(self._schema.inputs)
            return value
        return Instance(self._schema.inputs, dict(value))

    def coerce_database(self, value: InputLike) -> Instance:
        if isinstance(value, Instance):
            if value.schema != self._schema.database:
                return value.project_onto(self._schema.database)
            return value
        return Instance(self._schema.database, dict(value))

    def run(
        self,
        database: InputLike,
        input_sequence: Sequence[InputLike],
    ) -> Run:
        """Execute the transducer; return the full run."""
        db = self.coerce_database(database)
        state = self.initial_state()
        log_schema = self._schema.log_schema
        ctx = self.new_step_context(db)
        inputs: list[Instance] = []
        states: list[Instance] = []
        outputs: list[Instance] = []
        logs: list[Instance] = []
        for raw in input_sequence:
            current = self.coerce_input(raw)
            output = self.output_with_context(ctx, current, state, db)
            if output.schema != self._schema.outputs:
                raise SchemaError(
                    "output function returned an instance of the wrong schema"
                )
            next_state = self.state_function(current, state, db)
            if next_state.schema != self._schema.state:
                raise SchemaError(
                    "state function returned an instance of the wrong schema"
                )
            inputs.append(current)
            outputs.append(output)
            states.append(next_state)
            logs.append(log_of_step(current, output, log_schema))
            state = next_state
        return Run(db, tuple(inputs), tuple(states), tuple(outputs), tuple(logs))

    def step(
        self, database: InputLike, state: Instance, inputs: InputLike
    ) -> tuple[Instance, Instance]:
        """Single transition: returns (next_state, output)."""
        db = self.coerce_database(database)
        current = self.coerce_input(inputs)
        output = self.output_function(current, state, db)
        next_state = self.state_function(current, state, db)
        return next_state, output

    def log_of(
        self, database: InputLike, input_sequence: Sequence[InputLike]
    ) -> tuple[Instance, ...]:
        """Convenience: the log sequence of the run on ``input_sequence``."""
        return self.run(database, input_sequence).logs


class FunctionalTransducer(RelationalTransducer):
    """A transducer whose σ and ω are arbitrary Python callables.

    This is the unrestricted model: the paper notes that all the
    interesting verification questions are undecidable for it (even for
    first-order definable functions).  The library uses it as a harness
    for counterexamples and as the common denominator in tests.
    """

    def __init__(
        self,
        schema: TransducerSchema,
        state_function: Callable[[Instance, Instance, Instance], Instance],
        output_function: Callable[[Instance, Instance, Instance], Instance],
    ) -> None:
        super().__init__(schema)
        self._state_fn = state_function
        self._output_fn = output_function

    def state_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        return self._state_fn(inputs, state, database)

    def output_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        return self._output_fn(inputs, state, database)
