"""Comparison policies: how strictly, and how loudly.

A :class:`ComparisonPolicy` is the knob bundle of a
:class:`~repro.shadow.service.ShadowService`:

* **mode** -- ``strict`` demands per-step log *equality* plus equal
  output instances (the online face of log equivalence, Theorem 3.5);
  ``containment`` only demands that the candidate's log entries are
  contained in the incumbent's (log containment, Theorem 3.4) -- a
  candidate that logs *less* passes, one that invents log facts fails.
* **fail_open / fail_closed** -- fail-open records the divergence and
  keeps serving from the incumbent (the production posture); fail-closed
  raises :class:`~repro.errors.ShadowDivergence` on the spot (the CI
  gate posture).

Every mirrored step is compared: a step costs one entry diff, so a
divergence is always reported on the step where the runs fork.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecError

__all__ = ["ComparisonPolicy", "STRICT", "CONTAINMENT"]

STRICT = "strict"
CONTAINMENT = "containment"

_MODES = (STRICT, CONTAINMENT)


@dataclass(frozen=True)
class ComparisonPolicy:
    """How a shadow service diffs incumbent and candidate steps."""

    mode: str = STRICT
    fail_open: bool = True

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SpecError(
                f"unknown comparison mode {self.mode!r}; "
                f"expected one of {_MODES}"
            )

    @property
    def fail_closed(self) -> bool:
        return not self.fail_open

    @classmethod
    def strict(cls, *, fail_open: bool = True) -> "ComparisonPolicy":
        """Per-step log + output equality on every step."""
        return cls(mode=STRICT, fail_open=fail_open)

    @classmethod
    def containment(cls, *, fail_open: bool = True) -> "ComparisonPolicy":
        """Per-step log containment (candidate ⊆ incumbent) on every step."""
        return cls(mode=CONTAINMENT, fail_open=fail_open)

