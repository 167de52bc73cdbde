"""Seeded traffic shapes for scenario workloads.

Three deterministic generators cover the realistic regimes of pod
traffic without any numpy dependency:

* :class:`ZipfSampler` -- Zipf-skewed choice over a ranked population
  (hot products, hot topics, hot peers).  A handful of ranks absorb
  most of the probability mass, which is what shared catalogs and
  feeds look like in the wild.
* :func:`lognormal_length` -- heavy-tailed session lengths.  Most
  sessions are short, a few are very long; the log-normal is
  parameterised by its *mean* so callers can keep thinking in "average
  steps per session".
* :func:`open_loop_schedule` -- open-loop arrivals: sessions arrive on
  a Poisson process and each session's steps are spaced by exponential
  think times on its own virtual clock, independent of service times.
  The resulting global order interleaves sessions the way wall-clock
  traffic would, while staying a pure function of the seed.

:func:`open_loop_events` exposes the same schedule *with* its virtual
timestamps.  ``run_scenario`` replays only the order, as fast as the
service allows.

Everything is seeded through string-keyed :class:`random.Random`
instances (the repo-wide idiom), so two runs with the same seed produce
byte-identical schedules on any platform.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from math import exp, log
from typing import TYPE_CHECKING, Sequence

from repro.pods.api import StepRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.scenarios.base import Workload

__all__ = [
    "ZipfSampler",
    "lognormal_length",
    "open_loop_events",
    "open_loop_schedule",
]


class ZipfSampler:
    """Sample ranks ``0..n-1`` with probability proportional to 1/(r+1)^s.

    ``s`` (the exponent) controls the skew: 0 is uniform, ~1 is the
    classic Zipf regime where the top few ranks dominate.  Sampling is
    a binary search over the precomputed cumulative weights, so each
    draw is O(log n) and fully determined by the caller's ``rng``.
    """

    def __init__(self, n: int, exponent: float = 1.0) -> None:
        if n <= 0:
            raise ValueError(f"ZipfSampler needs a positive population, got {n}")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        self._cumulative = list(accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        """One rank in ``0..n-1``, skewed toward the low ranks."""
        return bisect_right(self._cumulative, rng.random() * self._total)

    def choice(self, rng: random.Random, population: Sequence):
        """A Zipf-skewed element of ``population`` (ranked by position)."""
        if len(population) != self.n:
            raise ValueError(
                f"population of {len(population)} does not match sampler over {self.n}"
            )
        return population[self.sample(rng)]


def lognormal_length(
    rng: random.Random,
    mean: float,
    sigma: float = 0.6,
    minimum: int = 1,
    maximum: int | None = None,
) -> int:
    """A heavy-tailed session length with the given *mean*.

    Draws from a log-normal whose underlying ``mu`` is solved so that
    the distribution's mean is ``mean`` (``mu = ln(mean) - sigma^2/2``),
    then rounds and clamps to ``[minimum, maximum]``.  ``maximum``
    defaults to ``4 * mean`` so a single unlucky session cannot dwarf a
    whole test run.
    """
    if mean <= 0:
        raise ValueError(f"mean session length must be positive, got {mean}")
    if maximum is None:
        maximum = max(minimum, round(4 * mean))
    mu = log(mean) - (sigma * sigma) / 2.0
    draw = exp(rng.gauss(mu, sigma))
    return max(minimum, min(maximum, round(draw)))


def open_loop_events(
    workload: "Workload",
    *,
    seed: int = 0,
    arrival_rate: float = 4.0,
    think_time: float = 1.0,
) -> list[tuple[float, StepRequest]]:
    """The open-loop schedule with its virtual timestamps.

    Sessions arrive on a Poisson process with rate ``arrival_rate``
    (sessions per virtual second, in the workload's declared order);
    each session then spaces its own steps by exponential think times
    with mean ``think_time``.  Returns ``(at, request)`` pairs sorted
    by time (session id and position break ties deterministically);
    per-session order is preserved by construction, since times are
    strictly increasing within a session.

    The schedule is a pure function of ``(workload, seed, rates)``.
    """
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if think_time < 0:
        raise ValueError(f"think_time must be >= 0, got {think_time}")
    rng = random.Random(f"open-loop:{workload.scenario}:{seed}")
    events: list[tuple[float, str, int, dict]] = []
    clock = 0.0
    for session_id in workload.sessions:
        clock += rng.expovariate(arrival_rate)
        at = clock
        for position, step in enumerate(workload.scripts[session_id]):
            if think_time > 0:
                at += rng.expovariate(1.0 / think_time)
            events.append((at, session_id, position, step))
    events.sort(key=lambda event: (event[0], event[1], event[2]))
    return [
        (at, StepRequest(session_id, step))
        for at, session_id, _pos, step in events
    ]


def open_loop_schedule(
    workload: "Workload",
    *,
    seed: int = 0,
    arrival_rate: float = 4.0,
    think_time: float = 1.0,
) -> list[StepRequest]:
    """Flatten a workload into one open-loop request *order*.

    The timestamp-free view of :func:`open_loop_events` -- what the
    scenario runner consumes.
    """
    return [
        request
        for _at, request in open_loop_events(
            workload,
            seed=seed,
            arrival_rate=arrival_rate,
            think_time=think_time,
        )
    ]

