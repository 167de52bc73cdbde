"""``run_scenario``: one driver for every scenario, every service.

The driver expands a scenario into an open-loop request schedule and
pushes it through ``create_session`` / ``submit_batch`` -- the only
surface it touches -- so the *same* call works against an in-process
:class:`~repro.pods.service.PodService` or a
:class:`~repro.server.client.PodClient` talking HTTP to a pod server
(one worker or N: a sharded run is ``python -m repro.server --scenario
NAME --workers N`` plus ``run_scenario(NAME, service=PodClient(...))``).
When no service is injected it builds one from the scenario bundle,
with the scenario's own :class:`~repro.verify.api.PropertySpec` list
attached as an :class:`~repro.verify.api.OnlineAuditor`.

``shadow_candidate`` turns any run into a shadow deploy: the built
service is wrapped in a :class:`~repro.shadow.ShadowService` mirroring
every request to a second service running the candidate scenario's
transducer over the *incumbent's* database, and the report grows the
divergence columns.  ``pace=True`` replays the open-loop schedule
against the real clock (sleeping to each arrival) instead of merely
preserving its order -- logs and digests are identical either way.

The returned :class:`ScenarioReport` carries throughput, the metrics
snapshot, audit counters, and (when logs are retained) a canonical
SHA-256 digest over every session log -- the equality token the
determinism, store-parity and HTTP-parity suites compare.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.pods.service import PodService
from repro.scenarios.base import Scenario
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.traffic import open_loop_events, paced_requests
from repro.verify.api import OnlineAuditor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pods.api import StepRequest
    from repro.shadow import ComparisonPolicy

__all__ = ["ScenarioReport", "run_scenario", "make_auditor", "log_digest"]


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one :func:`run_scenario` call.

    ``audit_checks`` / ``audit_violations`` come from the service's
    metrics snapshot (zero when the traffic ran unaudited, e.g. against
    a server whose workers hold no auditor); ``log_digest`` is ``None``
    unless logs were retained.  The shadow columns are populated only
    for ``shadow_candidate`` runs: ``divergences`` counts the recorded
    :class:`~repro.shadow.DivergenceReport` objects,
    ``first_divergence_step`` localizes the earliest one, and
    ``shadow_log_digest`` is the candidate side's digest (equal to
    ``log_digest`` exactly when the candidate behaved identically).
    """

    scenario: str
    sessions: int
    total_steps: int
    wall_seconds: float
    steps_per_second: float
    expects_violations: bool
    metrics: dict
    audit_checks: int
    audit_violations: int
    findings: int
    log_digest: "str | None"
    shadow_candidate: "str | None" = None
    divergences: int = 0
    first_divergence_step: "int | None" = None
    shadow_log_digest: "str | None" = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "sessions": self.sessions,
            "total_steps": self.total_steps,
            "wall_seconds": self.wall_seconds,
            "steps_per_second": self.steps_per_second,
            "expects_violations": self.expects_violations,
            "audit_checks": self.audit_checks,
            "audit_violations": self.audit_violations,
            "findings": self.findings,
            "log_digest": self.log_digest,
            "shadow_candidate": self.shadow_candidate,
            "divergences": self.divergences,
            "first_divergence_step": self.first_divergence_step,
            "shadow_log_digest": self.shadow_log_digest,
        }


def make_auditor(
    scenario: "Scenario | str", *, check_every: int = 1
) -> "OnlineAuditor | None":
    """A fresh auditor over the scenario's specs (None if it has none).

    ``check_every=k`` runs the latching monitors (log validity, goal
    reachability) on every k-th step of each session only; per-step
    monitors are unaffected.  Log validity replays the observed inputs
    and decides a BSR sentence only when the replay diverges, so on
    clean traffic ``k`` saves replay work, not BSR decisions.
    """
    scenario = resolve_scenario(scenario)
    specs = scenario.specs()
    if not specs:
        return None
    return OnlineAuditor(
        specs, reference=scenario.reference(), check_every=check_every
    )


def log_digest(service, session_ids: Iterable[str]) -> str:
    """Canonical SHA-256 over the given sessions' logs.

    Sessions are visited in sorted-id order; each log entry is reduced
    to ``{relation: sorted rows}`` over its schema, so the digest is
    independent of set iteration order, service implementation, and
    which side of an HTTP boundary produced it.
    """
    payload = []
    for session_id in sorted(session_ids):
        log = service.session(session_id).log()
        entries = [
            {
                name: sorted((list(row) for row in entry.get(name)), key=repr)
                for name in sorted(entry)
            }
            for entry in log.entries
        ]
        payload.append([session_id, entries])
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _chunked(requests: "Sequence[StepRequest]", size: int):
    for start in range(0, len(requests), size):
        yield requests[start : start + size]


def run_scenario(
    scenario: "Union[Scenario, str]",
    *,
    service=None,
    sessions: int = 32,
    steps: int = 6,
    seed: int = 0,
    scale: "int | None" = None,
    store=None,
    batch_size: int = 64,
    audit: bool = True,
    keep_logs: bool = True,
    session_prefix: str = "",
    arrival_rate: float = 4.0,
    think_time: float = 1.0,
    check_every: int = 1,
    shadow_candidate: "Union[Scenario, str, None]" = None,
    shadow_policy: "ComparisonPolicy | None" = None,
    pace: bool = False,
    time_scale: float = 1.0,
) -> ScenarioReport:
    """Drive one scenario's open-loop traffic through a pod service.

    With ``service=None`` the driver builds the scenario's own service:
    one :class:`PodService` over ``store``, audited by the scenario's
    specs unless ``audit=False``.  An injected ``service`` -- including
    a :class:`~repro.server.client.PodClient` over a pod server with N
    workers -- is used as-is, and the build-time knobs (``store``,
    ``audit``, ``keep_logs``) are ignored: they describe a service this
    call would have built.

    ``shadow_candidate`` names (or is) a second scenario whose
    transducer shadows the run: the (built or injected) service becomes
    the incumbent of a :class:`~repro.shadow.ShadowService`, the
    candidate runs over the incumbent scenario's database, and every
    request is mirrored and diffed under ``shadow_policy`` (default
    strict, fail-open).  Shadowing a scenario against *itself* is the
    canonical no-divergence control.

    ``pace=True`` replays the schedule against the real clock
    (``time_scale`` seconds of wall time per virtual second) through
    per-request ``submit`` calls; the default pushes the same order
    through ``submit_batch`` as fast as the service allows.

    ``steps`` is the *mean* session length; scenarios with heavy-tailed
    lengths draw around it.  ``session_prefix`` namespaces session ids
    so several runs can share one long-lived service.
    """
    scenario = resolve_scenario(scenario)
    workload = scenario.workload(
        sessions=sessions,
        mean_steps=steps,
        seed=seed,
        scale=scale,
        prefix=session_prefix,
    )
    events = open_loop_events(
        workload, seed=seed, arrival_rate=arrival_rate, think_time=think_time
    )
    schedule = [request for _at, request in events]
    database = None
    transducer = None
    if service is None:
        transducer = scenario.build_transducer()
        database = scenario.database(seed=seed, scale=scale)
        service = PodService(
            transducer,
            database,
            store=store,
            keep_logs=keep_logs,
            auditor=(
                make_auditor(scenario, check_every=check_every)
                if audit
                else None
            ),
        )
    shadow = None
    if shadow_candidate is not None:
        from repro.shadow import ShadowService

        candidate_scenario = resolve_scenario(shadow_candidate)
        if database is None:
            database = scenario.database(seed=seed, scale=scale)
        if transducer is None:
            transducer = scenario.build_transducer()
        # The candidate runs the *candidate's* transducer over the
        # *incumbent's* database and traffic: a shadow deploy asks "what
        # would the new model have done with production's requests?".
        candidate_service = PodService(
            candidate_scenario.build_transducer(),
            database,
            keep_logs=keep_logs,
        )
        service = shadow = ShadowService(
            service,
            candidate_service,
            policy=shadow_policy,
            transducer=transducer,
            database=database,
        )
    for session_id in workload.sessions:
        service.create_session(session_id)
    started = perf_counter()
    if pace:
        for request in paced_requests(events, time_scale=time_scale):
            service.submit(request)
    else:
        for chunk in _chunked(schedule, batch_size):
            service.submit_batch(chunk)
    wall = perf_counter() - started
    snapshot = service.metrics.snapshot()
    findings = len(service.audit_findings())
    # Session.log() is empty when the service retains no logs -- in
    # that case there is nothing meaningful to digest.
    digest = None
    if workload.sessions and len(service.session(workload.sessions[0]).log()):
        digest = log_digest(service, workload.sessions)
    divergences = 0
    first_divergence_step = None
    shadow_digest = None
    if shadow is not None:
        divergences = shadow.divergence_count()
        first = shadow.first_divergence()
        if first is not None:
            first_divergence_step = first.first_divergent_step
        if digest is not None:
            # The candidate saw exactly the mirrored prefix of every
            # session (divergent sessions detach), so its digest equals
            # the incumbent's iff no session ever diverged.  A candidate
            # too broken to even hold its sessions has no digest at all.
            try:
                shadow_digest = log_digest(shadow.candidate, workload.sessions)
            except Exception:  # noqa: BLE001 - candidate faults contained
                shadow_digest = None
    total = len(schedule)
    return ScenarioReport(
        scenario=scenario.name,
        sessions=len(workload.sessions),
        total_steps=total,
        wall_seconds=wall,
        steps_per_second=(total / wall) if wall > 0 else float("inf"),
        expects_violations=scenario.expects_violations,
        metrics=snapshot,
        audit_checks=snapshot.get("audit_checks", 0),
        audit_violations=snapshot.get("audit_violations", 0),
        findings=findings,
        log_digest=digest,
        shadow_candidate=(
            resolve_scenario(shadow_candidate).name
            if shadow_candidate is not None
            else None
        ),
        divergences=divergences,
        first_divergence_step=first_divergence_step,
        shadow_log_digest=shadow_digest,
    )
