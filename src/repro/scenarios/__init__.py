"""Scenario & workload subsystem.

A registry of diverse transducer scenarios -- each bundling a program,
its database, a seeded traffic generator, and the property specs that
audit it -- plus :func:`run_scenario`, one open-loop driver that works
unchanged against :class:`~repro.pods.service.PodService` and a
:class:`~repro.server.client.PodClient` over HTTP (one worker or N).

    >>> from repro.scenarios import run_scenario, scenario_names
    >>> scenario_names()  # doctest: +SKIP
    ['adversarial', 'auction', 'commerce', ...]
    >>> run_scenario("feed-delivery", sessions=8, steps=5).audit_violations
    0

``python -m repro.scenarios --list`` / ``--run NAME`` from a shell.
"""

from repro.scenarios.base import Scenario, Workload
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    load_builtin_scenarios,
    register_scenario,
    resolve_scenario,
    scenario_database,
    scenario_names,
    scenario_transducer,
)
from repro.scenarios.runner import (
    ScenarioReport,
    log_digest,
    make_auditor,
    run_scenario,
)
from repro.scenarios.traffic import (
    ZipfSampler,
    lognormal_length,
    open_loop_events,
    open_loop_schedule,
)

__all__ = [
    "Scenario",
    "Workload",
    "ScenarioReport",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "load_builtin_scenarios",
    "resolve_scenario",
    "scenario_names",
    "scenario_transducer",
    "scenario_database",
    "run_scenario",
    "make_auditor",
    "log_digest",
    "ZipfSampler",
    "lognormal_length",
    "open_loop_events",
    "open_loop_schedule",
]
