"""Validated environment-variable parsing for the runtime knobs.

Every runtime tunable that can come from the environment --
``REPRO_MAX_RESIDENT`` (hot-session cache bound) and the
``REPRO_SERVER_*`` family of the process-level pod server -- funnels
through :func:`env_int`, so every knob validates the same way and
misconfiguration fails with the same clear message shape::

    invalid REPRO_MAX_RESIDENT='zero': need an integer >= 0

Errors are raised as :class:`~repro.errors.SessionError` (the lifecycle
error type callers of :mod:`repro.pods` already handle); pass
``error=`` to raise a different type at other call sites.
"""

from __future__ import annotations

import os
from typing import Type

from repro.errors import SessionError


def parse_int(
    name: str,
    raw: "str | int",
    *,
    minimum: int = 1,
    error: Type[Exception] = SessionError,
) -> int:
    """``raw`` as a validated integer ``>= minimum``.

    ``name`` labels the knob in the error message (an environment
    variable name or argument name); ``raw`` may already be an int
    (argument paths reuse the same bound check as env paths).
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        value = raw
    else:
        try:
            value = int(str(raw).strip())
        except ValueError:
            raise error(
                f"invalid {name}={raw!r}: need an integer >= {minimum}"
            ) from None
    if value < minimum:
        raise error(
            f"invalid {name}={value!r}: need an integer >= {minimum}"
        )
    return value


def env_int(
    name: str,
    *,
    default: "int | None",
    minimum: int = 1,
    error: Type[Exception] = SessionError,
) -> "int | None":
    """The integer value of environment variable ``name``.

    Unset or empty/whitespace returns ``default`` untouched; anything
    else must parse as an integer ``>= minimum`` or ``error`` is raised
    with the knob's name in the message.
    """
    raw = os.environ.get(name, "")
    if not raw.strip():
        return default
    return parse_int(name, raw, minimum=minimum, error=error)
