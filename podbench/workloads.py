"""The two workloads: their sizes, set-up, closed loop and correctness gates.

Every workload replays seeded traffic from
:func:`repro.scenarios.traffic.open_loop_events` in schedule order,
closed-loop: one client thread sends the next ``submit_batch`` only
after the previous one returned.  The sizes below set each workload's
cache behaviour and are restated in ``BENCHMARK.json``:

* ``commerce-http`` -- FRIENDLY over a 1000-product catalog, through
  ``PodClient`` to an in-process ``PodServer`` with one worker process
  and the SQLite store (``durability="step"``); every session resident.
* ``fraud-audit-shadow-evict`` -- SHORT with a ``LogValidity``
  ``OnlineAuditor`` checking every step, one step per call, into a
  ``ShadowService``.  Its incumbent is SQLite-backed with room for
  fewer sessions than are active, so most steps rehydrate a session
  from the store; its candidate is an identical in-memory service.
  The BSR audit is nearly all of the work.

Each gate compares the sampled sessions' log digest with the reference
digest computed under ``naive_evaluation()``; the shadow candidate's
digest must equal the incumbent's.  Session counts are set so that the
schedule outlasts a run of ``run_seconds`` on a machine twice as fast
as the one the sizes were set on.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, replace

__all__ = ["WORKLOADS", "Spec", "spec_for", "Running", "GateError", "check_gate"]

class GateError(AssertionError):
    """A correctness gate failed: the run must print no numbers."""


@dataclass(frozen=True)
class Spec:
    """The sizes of one workload (see the module docstring)."""

    name: str
    scenario: str
    surface: str  # "http" or "shadow"
    sessions: int
    mean_steps: int
    arrival_rate: float
    batch: int
    warm_sessions: int
    #: Sessions whose full logs are digested and checked against the
    #: naive evaluator, drawn from the first ``sample_from`` sessions.
    sample: int
    sample_from: int
    #: Peak RSS is read once this many steps have been served, so that
    #: it does not grow with throughput (a faster build serves more
    #: steps in the same seconds and retains more log entries).
    rss_after_steps: int
    scale: "int | None" = None
    residency_divisor: "int | None" = None
    #: Whether the serving service carries the scenario's auditor.
    audited: bool = False

    @property
    def max_resident(self) -> "int | None":
        if self.residency_divisor is None:
            return None
        return max(1, self.sessions // self.residency_divisor)


WORKLOADS = {
    spec.name: spec
    for spec in (
        # Three sampled sessions: the naive reference evaluates each of
        # them at about 1.7 s per 64-step session.
        Spec("commerce-http", "commerce", "http", sessions=3200,
             mean_steps=64, arrival_rate=4.0, batch=32, warm_sessions=8,
             sample=3, sample_from=64, rss_after_steps=8192, scale=1000),
        Spec("fraud-audit-shadow-evict", "fraud-detection", "shadow",
             sessions=400, mean_steps=6, arrival_rate=1.0, batch=1,
             warm_sessions=2, sample=4, sample_from=16, rss_after_steps=64,
             residency_divisor=200, audited=True),
    )
}

#: Smoke sizes: the same shapes, a few hundred steps each.
TINY = {
    "commerce-http": dict(sessions=24, mean_steps=32, warm_sessions=2,
                          sample=4, sample_from=8, rss_after_steps=64),
    "fraud-audit-shadow-evict": dict(sessions=6, warm_sessions=1, sample=2,
                                     sample_from=4, rss_after_steps=4),
}


def spec_for(name: str, tiny: bool = False) -> Spec:
    spec = WORKLOADS[name]
    return replace(spec, **TINY[name]) if tiny else spec


def sampled_indices(spec: Spec, seed: int) -> list[int]:
    rng = random.Random(f"podbench:sample:{seed}")
    return sorted(rng.sample(range(spec.sample_from), spec.sample))


def peak_rss_mb(pids) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Running:
    """One workload's live service plus what the harness needs of it."""

    def __init__(self, spec: Spec, seed: int, workdir: str, tracer=None):
        from repro.scenarios import resolve_scenario

        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.scenario = resolve_scenario(spec.scenario)
        self.server = None
        self.service = None
        self.candidate = None
        self.incumbent = None

    # -- set-up (timed as setup_s by the caller) ------------------------------

    def session_id(self, index: int) -> str:
        return self.scenario.session_id(index)

    def script(self, index: int, length: "int | None" = None) -> list:
        if length is None:
            length = self.scenario.session_length(
                index, seed=self.seed, mean_steps=self.spec.mean_steps
            )
        return self.scenario.session_script(
            index,
            seed=self.seed,
            scale=self.scenario.scale_of(self.spec.scale),
            length=length,
        )

    def _store(self, inner):
        if self.tracer is None:
            return inner
        from podbench.tracing import DelegatingStore

        return DelegatingStore(inner, self.tracer)

    def setup(self) -> None:
        """Database, service or server, every session, warm-up."""
        from repro.pods import PodService, SqliteStore
        from repro.scenarios import make_auditor

        spec = self.spec
        self.database = self.scenario.database(seed=self.seed, scale=spec.scale)
        self.transducer = self.scenario.build_transducer()
        if spec.surface == "http":
            from repro.commerce.models import build_friendly
            from repro.server import PodClient, PodServer

            self.server = PodServer(
                build_friendly,
                self.database,
                workers=1,
                store_kind="sqlite",
                durability="step",
                store_root=os.path.join(self.workdir, "server"),
            ).start()
            self.service = PodClient(self.server.url, self.transducer)
        elif spec.surface == "shadow":
            from repro.shadow import ShadowService

            self.incumbent = PodService(
                self.transducer,
                self.database,
                store=self._store(SqliteStore(
                    os.path.join(self.workdir, "incumbent.sqlite"),
                    durability="step",
                )),
                max_resident_sessions=spec.max_resident,
                auditor=make_auditor(self.scenario) if spec.audited else None,
            )
            self.candidate = PodService(
                self.scenario.build_transducer(), self.database
            )
            self.service = ShadowService(
                self.incumbent,
                self.candidate,
                transducer=self.transducer,
                database=self.database,
            )
        else:
            raise ValueError(f"unknown surface {spec.surface!r}")
        for index in range(spec.sessions):
            self.service.create_session(self.session_id(index))
        self._warm_up()

    def _warm_up(self) -> None:
        """Separate sessions, run to completion, fill the plan/kernel memos.

        Each is ``mean_steps`` long whatever the seed: an audited step
        costs more the later it comes in its session, so seed-drawn
        lengths would make an audited workload's set-up time vary by seed.
        """
        from repro.pods import StepRequest

        requests = []
        for offset in range(self.spec.warm_sessions):
            index = self.spec.sessions + offset
            session_id = "warm-" + self.session_id(index)
            self.service.create_session(session_id)
            requests.extend(
                StepRequest(session_id, step)
                for step in self.script(index, length=self.spec.mean_steps)
            )
        for start in range(0, len(requests), self.spec.batch):
            self.service.submit_batch(requests[start : start + self.spec.batch])

    # -- traffic ---------------------------------------------------------------

    def prepare_traffic(self) -> None:
        """Every session's script and the schedule, outside all timed parts.

        Steps are kept as tuples and expanded into the scenario's dict
        of sets when sent, so the harness holds a fraction of the memory
        the program's peak RSS is measured in.  The schedule is a list
        of ``(session index, position)`` pairs in open-loop order.
        """
        from repro.scenarios import Workload
        from repro.scenarios.traffic import open_loop_events

        self.ids = [self.session_id(i) for i in range(self.spec.sessions)]
        self.scripts = [
            tuple(
                tuple((rel, tuple(rows)) for rel, rows in step.items())
                for step in self.script(index)
            )
            for index in range(self.spec.sessions)
        ]
        # The order depends only on script lengths and the seed, so the
        # positions themselves can stand in for the steps.
        workload = Workload(
            scenario=self.scenario.name,
            sessions=tuple(self.ids),
            scripts={
                sid: range(len(script))
                for sid, script in zip(self.ids, self.scripts)
            },
        )
        index_of = {sid: i for i, sid in enumerate(self.ids)}
        self.order = [
            (index_of[request.session], request.inputs)
            for _at, request in open_loop_events(
                workload, seed=self.seed, arrival_rate=self.spec.arrival_rate
            )
        ]

    def active_sessions(self, served: int) -> float:
        """Mean number of started, unfinished sessions over ``served`` steps."""
        lengths = [len(script) for script in self.scripts]
        active = 0
        total = 0
        for index, position in self.order[:served]:
            if position == 0:
                active += 1
            if position == lengths[index] - 1:
                active -= 1
            total += active
        return total / served if served else 0.0

    def run_timed(self, seconds: float) -> dict:
        """The closed loop: one ``submit_batch`` after another until time is up."""
        from time import perf_counter

        from repro.errors import (
            AuditViolation,
            Backpressure,
            ServerError,
            StoreError,
        )
        from repro.pods import StepRequest

        # Failed calls are counted against calls attempted, not raised.
        failures = (Backpressure, ServerError, StoreError, AuditViolation)
        service = self.service
        ids = self.ids
        scripts = self.scripts
        order = self.order
        batch = self.spec.batch
        tracer = self.tracer
        latencies: list[float] = []
        failed = 0
        steps = 0
        continuity_errors = 0
        rss_mb = None
        before = self.before = self.counters()
        self.audit_before = (
            self.incumbent.metrics.snapshot() if self.spec.audited else None
        )
        if tracer is not None:
            tracer.enabled = True
        started = perf_counter()
        deadline = started + seconds
        now = started
        for offset in range(0, len(order), batch):
            chunk = order[offset : offset + batch]
            requests = [
                StepRequest(
                    ids[index],
                    {rel: set(rows) for rel, rows in scripts[index][position]},
                )
                for index, position in chunk
            ]
            if tracer is not None:
                tracer.call_id += 1
            sent = perf_counter()
            try:
                results = service.submit_batch(requests)
            except failures:
                now = perf_counter()
                latencies.append(float("inf"))
                failed += 1
            else:
                now = perf_counter()
                latencies.append(now - sent)
                steps += len(chunk)
                for (index, position), result in zip(chunk, results):
                    if (
                        result.step != position + 1
                        or result.session.session_id != ids[index]
                    ):
                        continuity_errors += 1
                continuity_errors += abs(len(results) - len(chunk))
            if rss_mb is None and steps >= self.spec.rss_after_steps:
                rss_mb = peak_rss_mb(self.pids())
            if now >= deadline:
                break
        elapsed = now - started
        if tracer is not None:
            tracer.enabled = False
        if rss_mb is None:
            rss_mb = peak_rss_mb(self.pids())
        return {
            "steps": steps,
            "elapsed_s": elapsed,
            "latencies": latencies,
            "failed": failed,
            "continuity_errors": continuity_errors,
            "peak_rss_mb": rss_mb,
            "exhausted": now < deadline,
            "counters_before": before,
            "counters_after": self.counters(),
        }

    def pids(self) -> list[int]:
        pids = [os.getpid()]
        if self.server is not None:
            pids.append(self.server.worker(0).pid())
        return pids

    def counters(self) -> dict:
        """Runtime counters summed over every service of the run."""
        from repro.pods import merge_snapshots

        if self.server is not None:
            return dict(self.service.metrics_payload()["pods"])
        services = [self.service]
        if self.incumbent is not None:
            services = [self.incumbent, self.candidate]
        return merge_snapshots(service.metrics.snapshot() for service in services)

    # -- correctness, after the timed phase ------------------------------------

    def gate(self) -> dict:
        """Drain the sampled sessions, then gather every gate input."""
        from repro.pods import StepRequest
        from repro.scenarios import log_digest

        indices = sampled_indices(self.spec, self.seed)
        sampled = [self.ids[i] for i in indices]
        for index, session_id in zip(indices, sampled):
            done = self.service.session(session_id).steps
            script = self.script(index)
            if done < len(script):
                self.service.submit_batch(
                    StepRequest(session_id, step) for step in script[done:]
                )
        gate = {
            "digest": log_digest(self.service, sampled),
            "reference_digest": self.reference_digest(indices),
        }
        if self.candidate is not None:
            gate["candidate_digest"] = log_digest(self.candidate, sampled)
            gate["divergences"] = self.service.divergence_count()
        if self.spec.audited:
            # Deltas from the start of the timed phase: warm-up steps
            # were audited too.  Only the incumbent carries the auditor,
            # so the steps are its own, not the candidate's as well.
            before = self.audit_before
            after = self.incumbent.metrics.snapshot()
            gate["audit_checks"] = after["audit_checks"] - before["audit_checks"]
            gate["audit_steps"] = (
                after["steps_executed"] - before["steps_executed"]
            )
            gate["audit_violations"] = after["audit_violations"]
            gate["findings"] = len(self.incumbent.audit_findings())
        return gate

    def reference_digest(self, indices) -> str:
        """The sampled sessions' digest under the naive reference evaluator."""
        from repro.datalog.evaluate import naive_evaluation
        from repro.pods import PodService, StepRequest
        from repro.scenarios import log_digest

        sampled = [self.ids[i] for i in indices]
        with naive_evaluation():
            reference = PodService(
                self.scenario.build_transducer(), self.database
            )
            for index, session_id in zip(indices, sampled):
                reference.create_session(session_id)
                reference.submit_batch(
                    StepRequest(session_id, s) for s in self.script(index)
                )
            return log_digest(reference, sampled)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        elif self.incumbent is not None:
            self.incumbent.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def check_gate(gate: dict) -> None:
    """Raise :class:`GateError` unless every correctness check holds.

    ``gate`` carries the sampled-session ``digest`` and the
    ``reference_digest`` from the naive evaluator, and optionally
    ``candidate_digest``, ``divergences``, ``audit_checks``,
    ``audit_steps``, ``audit_violations`` and ``findings``.
    """
    if gate["digest"] != gate["reference_digest"]:
        raise GateError(
            f"log digest {gate['digest']} differs from the naive reference "
            f"{gate['reference_digest']}"
        )
    if "candidate_digest" in gate and gate["candidate_digest"] != gate["digest"]:
        raise GateError("shadow candidate logs differ from the incumbent's")
    if gate.get("divergences", 0) != 0:
        raise GateError(f"{gate['divergences']} shadow divergences")
    if "audit_checks" in gate:
        if gate["audit_checks"] != gate["audit_steps"]:
            raise GateError(
                f"{gate['audit_checks']} audit checks for "
                f"{gate['audit_steps']} steps"
            )
        if gate["audit_violations"] or gate["findings"]:
            raise GateError(
                f"{gate['audit_violations']} audit violations, "
                f"{gate['findings']} findings on clean traffic"
            )
    if gate.get("continuity_errors", 0):
        raise GateError(
            f"{gate['continuity_errors']} results out of step with the schedule"
        )
