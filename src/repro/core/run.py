"""Runs of relational transducers.

A :class:`Run` records the input, state, output, and log sequences of a
transducer execution (Section 2.2).  :func:`format_run_figure` renders a
run in the style of the paper's Figures 1 and 2, which the benchmark
harness uses to regenerate those figures verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ArityError
from repro.relalg.instance import Instance
from repro.relalg.schema import DatabaseSchema


@dataclass(frozen=True)
class Run:
    """A finite run: sequences of instances, step-aligned.

    ``inputs[i]``, ``states[i]``, ``outputs[i]``, ``logs[i]`` are the
    input consumed, the state *after* the step, the output produced, and
    the log entry of step ``i`` (0-based; the paper numbers from 1).
    """

    database: Instance
    inputs: tuple[Instance, ...]
    states: tuple[Instance, ...]
    outputs: tuple[Instance, ...]
    logs: tuple[Instance, ...]

    def __post_init__(self) -> None:
        lengths = {
            len(self.inputs),
            len(self.states),
            len(self.outputs),
            len(self.logs),
        }
        if len(lengths) > 1:
            raise ValueError(f"misaligned run sequences: lengths {lengths}")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def last_output(self) -> Instance:
        if not self.outputs:
            raise ValueError("empty run has no last output")
        return self.outputs[-1]

    @property
    def last_state(self) -> Instance:
        if not self.states:
            raise ValueError("empty run has no last state")
        return self.states[-1]

    def log_sequence(self) -> tuple[Instance, ...]:
        return self.logs

    def output_facts(self, step: int) -> set[tuple[str, tuple]]:
        """The output facts of a step as (relation, tuple) pairs."""
        return set(self.outputs[step].facts())

    def prefix(self, length: int) -> "Run":
        """The run truncated to its first ``length`` steps."""
        return Run(
            self.database,
            self.inputs[:length],
            self.states[:length],
            self.outputs[:length],
            self.logs[:length],
        )


def log_of_step(
    input_instance: Instance,
    output_instance: Instance,
    log_schema: DatabaseSchema,
) -> Instance:
    """Compute ``(I_i ∪ O_i)|log`` for one step (Section 2.2, item 3).

    The entry reuses the instances' checked rows without re-walking
    them: a relation is taken only from an instance whose schema gives
    it the log schema's arity (otherwise its rows could not fit, and
    :class:`~repro.errors.ArityError` is raised).
    """
    data = {}
    for rel in log_schema:
        name = rel.name
        ins = input_instance.get(name)
        outs = output_instance.get(name)
        if (ins and input_instance.schema.arity(name) != rel.arity) or (
            outs and output_instance.schema.arity(name) != rel.arity
        ):
            raise ArityError(
                f"relation {name!r} has arity {rel.arity} in the log "
                "but not in the step's instances"
            )
        data[name] = ins | outs if ins and outs else ins or outs
    return Instance._from_checked(log_schema, data)


def _format_facts(instance: Instance) -> str:
    parts = []
    for name in sorted(instance.schema.names):
        for row in sorted(instance[name], key=repr):
            if row:
                rendered = ", ".join(str(v) for v in row)
                parts.append(f"{name}({rendered})")
            else:
                parts.append(name)
    return ", ".join(parts) if parts else "∅"


def format_run_figure(run: Run, title: str = "run") -> str:
    """Render a run as an input/output table like the paper's Fig. 1-2."""
    lines = [f"{title}:"]
    width = max((len(f"step {i + 1}") for i in range(len(run))), default=6)
    for i in range(len(run)):
        step = f"step {i + 1}".ljust(width)
        lines.append(f"  {step}  input:  {_format_facts(run.inputs[i])}")
        lines.append(f"  {' ' * width}  output: {_format_facts(run.outputs[i])}")
    return "\n".join(lines)


def logs_equal(left: Sequence[Instance], right: Sequence[Instance]) -> bool:
    """Step-wise equality of two log sequences."""
    if len(left) != len(right):
        return False
    return all(a == b for a, b in zip(left, right))


def format_log(logs: Iterable[Instance]) -> str:
    """Render a log sequence compactly, one step per line."""
    return "\n".join(
        f"  step {i + 1}: {_format_facts(entry)}"
        for i, entry in enumerate(logs)
    )
