"""The Scenario protocol: one workload, fully bundled.

A :class:`Scenario` packages everything a driver needs to exercise one
transducer program end to end: the transducer itself, its database
instance, a seeded per-session input generator, and the
:class:`~repro.verify.api.PropertySpec` objects that audit it.  The
bundle is what lets ``run_scenario`` drive any registered workload
against any service surface -- in-process :class:`~repro.pods.service.
PodService`, sharded, or a :class:`~repro.server.client.PodClient`
over HTTP -- without scenario-specific glue.

Subclasses override the obvious hooks (``build_transducer``,
``database``, ``session_script``, ``specs``); the base class supplies
the traffic envelope (heavy-tailed session lengths, stable session
ids) and :meth:`Scenario.workload`, which expands the hooks into a
concrete :class:`Workload` that :func:`~repro.scenarios.traffic.
open_loop_schedule` can flatten into wire traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.scenarios.traffic import lognormal_length

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spocus import SpocusTransducer
    from repro.verify.api.specs import PropertySpec

__all__ = ["Scenario", "Workload"]


@dataclass(frozen=True)
class Workload:
    """A concrete, fully-expanded batch of sessions for one scenario.

    ``sessions`` preserves generation order (which doubles as arrival
    order for the open-loop schedule); ``scripts`` maps each session id
    to its step-by-step input instances.
    """

    scenario: str
    sessions: tuple[str, ...]
    scripts: Mapping[str, Sequence[dict]]

    @property
    def total_steps(self) -> int:
        return sum(len(self.scripts[session]) for session in self.sessions)


class Scenario:
    """Base class for registered workload scenarios.

    Class attributes double as declarative metadata:

    * ``name`` -- registry key (required, unique).
    * ``description`` -- one line for ``python -m repro.scenarios --list``.
    * ``expects_violations`` -- True for adversarial scenarios whose
      traffic is *supposed* to trip the auditor; equivalence suites use
      it to decide whether a clean audit is a pass or a bug.
    * ``bench_profile`` -- ``"standard"`` scenarios join the default
      benchmark matrix; ``"slow"`` ones (e.g. BSR-backed log validation)
      only run at test sizes.
    * ``default_scale`` -- database size knob (catalog products, feed
      topics, auction items, peers) used when the caller passes none.
    """

    name: str = ""
    description: str = ""
    expects_violations: bool = False
    bench_profile: str = "standard"
    default_scale: int = 16

    # -- hooks -------------------------------------------------------

    def build_transducer(self) -> "SpocusTransducer":
        """The transducer this scenario serves.  Must be deterministic."""
        raise NotImplementedError

    def database(self, *, seed: int = 0, scale: int | None = None) -> dict:
        """The shared database instance, a pure function of (seed, scale).

        Purity matters: ``python -m repro.server --scenario NAME`` must
        rebuild the *same* database in the server process that an
        in-process run builds locally, or the HTTP-vs-in-process parity
        suite would be comparing different worlds.
        """
        raise NotImplementedError

    def specs(self) -> "tuple[PropertySpec, ...]":
        """The property specs an :class:`OnlineAuditor` should enforce."""
        return ()

    def reference(self) -> "SpocusTransducer | None":
        """Optional reference transducer for log-validity style specs."""
        return None

    def session_script(
        self, index: int, *, seed: int, scale: int, length: int
    ) -> "list[dict[str, set[tuple]]]":
        """The scripted inputs of session ``index`` -- ``length`` steps."""
        raise NotImplementedError

    # -- traffic envelope (overridable) ------------------------------

    def session_id(self, index: int) -> str:
        return f"{self.name}-{index:06d}"

    def session_length(self, index: int, *, seed: int, mean_steps: int) -> int:
        """Heavy-tailed by default; override for fixed-length scenarios."""
        rng = random.Random(f"{self.name}:length:{seed}:{index}")
        return lognormal_length(rng, mean_steps)

    # -- derived -----------------------------------------------------

    def scale_of(self, scale: int | None) -> int:
        return self.default_scale if scale is None else scale

    def workload(
        self,
        *,
        sessions: int,
        mean_steps: int,
        seed: int = 0,
        scale: int | None = None,
    ) -> Workload:
        """Expand the hooks into a concrete :class:`Workload`."""
        resolved = self.scale_of(scale)
        ids: list[str] = []
        scripts: dict[str, list[dict]] = {}
        for index in range(sessions):
            session = self.session_id(index)
            length = self.session_length(index, seed=seed, mean_steps=mean_steps)
            ids.append(session)
            scripts[session] = self.session_script(
                index, seed=seed, scale=resolved, length=length
            )
        return Workload(
            scenario=self.name, sessions=tuple(ids), scripts=scripts
        )
