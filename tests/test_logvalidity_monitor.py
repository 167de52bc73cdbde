"""Witness-first online log validation against the BSR oracle.

The :class:`~repro.verify.api.monitor.LogValidityMonitor` replays a
session's observed inputs through its own run of the reference
transducer and decides Theorem 3.1's BSR sentence only when that replay
diverges from the observed log.  These tests pin its verdicts to the
from-scratch decision procedure: a finding lands on exactly the step
where :func:`~repro.verify.logvalidity.check_log_validity` first calls
the prefix invalid, whatever the served transducer, forged log, resume point, or serving
state.  They also pin the cost model: clean traffic decides no sentence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import (
    PRICES,
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.core.transducer import FunctionalTransducer
from repro.pods import RuntimeMetrics, SqliteStore, merge_snapshots
from repro.pods.api import StepRequest
from repro.pods.service import PodService
from repro.relalg.instance import Instance
from repro.scenarios import run_scenario
from repro.verify.api import LogValidity, OnlineAuditor
from repro.verify.api.auditor import AuditOutcome
from repro.verify.api.monitor import LogValidityMonitor, StageView
from repro.verify.logvalidity import check_log_validity

SHORT = build_short()
DB = SHORT.coerce_database(default_database())
PRODUCTS = sorted(PRICES)
SPEC = LogValidity(name="log validates against SHORT")


def first_invalid_prefix(log) -> "int | None":
    """The 1-based length of the shortest invalid prefix, from scratch."""
    for length in range(1, len(log) + 1):
        if not check_log_validity(SHORT, DB, log[:length], replay=False).valid:
            return length
    return None


def expected_steps(log, first_observed: int = 1) -> list[int]:
    """Where a latching per-prefix audit reports.

    ``first_observed`` is the first step the audit sees (a resumed
    session's earlier steps are never observed).
    """
    first = first_invalid_prefix(log)
    if first is None:
        return []
    return [max(first, first_observed)]


# -- random traffic -------------------------------------------------------------

product = st.sampled_from(PRODUCTS)
# Honest payments, wrong amounts, and payments for products never
# ordered: the forged pay rows a served implementation may log.
pay_row = st.one_of(
    product.map(lambda p: (p, PRICES[p])),
    st.tuples(product, st.sampled_from([1, 45, 55, 350])),
)
step_inputs = st.fixed_dictionaries(
    {
        "order": st.frozensets(product.map(lambda p: (p,)), max_size=2),
        "pay": st.frozensets(pay_row, max_size=1),
    }
)
session = st.lists(step_inputs, min_size=1, max_size=5)
# A row added to an otherwise genuine log entry.
forged_row = st.one_of(
    st.tuples(st.just("pay"), pay_row),
    st.tuples(st.just("deliver"), product.map(lambda p: (p,))),
    st.tuples(st.just("sendbill"), product.map(lambda p: (p, PRICES[p]))),
)
served_models = {
    "short": build_short,
    "buggy": build_buggy_store,
    "friendly": build_friendly,
}


def drive(served, script, *, reference=SHORT):
    auditor = OnlineAuditor([SPEC], reference=reference)
    service = PodService(served, default_database(), auditor=auditor)
    handle = service.create_session("s")
    for inputs in script:
        service.submit(StepRequest(handle, {k: set(v) for k, v in inputs.items()}))
    log = service.session(handle).log().entries
    return service, auditor, list(log)


class TestDifferentialAgainstBsr:
    @given(
        served=st.sampled_from(sorted(served_models)),
        script=session,
    )
    @settings(max_examples=40, deadline=None)
    def test_findings_land_where_the_oracle_says_invalid(self, served, script):
        service, auditor, log = drive(served_models[served](), script)
        found = [f.step for f in auditor.findings()]
        assert found == expected_steps(log)
        decisions = service.metrics.snapshot()["audit_bsr_decisions"]
        if served != "buggy":
            # SHORT and FRIENDLY log identically: every step replays.
            assert found == [] and decisions == 0
        else:
            assert decisions <= len(log)

    @given(
        witness=session,
        observed=st.none() | session,
        resume_steps=st.integers(0, 3),
        seed_inputs=st.integers(0, 1),
        forge=st.lists(st.tuples(st.integers(0, 4), forged_row), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_monitor_matches_oracle_on_forged_logs(
        self, witness, observed, resume_steps, seed_inputs, forge
    ):
        # The log is produced by ``witness``, then some entries get a
        # forged row; the monitor only sees ``observed`` inputs (by
        # default the witness itself), so the replay diverges wherever
        # the two disagree and the monitor must re-anchor on a decoded
        # witness or latch.
        log = list(SHORT.run(DB, witness).logs)
        schema = SHORT.schema.log_schema
        for index, (relation, row) in forge:
            index %= len(log)
            entry = log[index]
            log[index] = Instance(
                schema,
                {name: set(entry[name]) for name in schema.names}
                | {relation: entry[relation] | {row}},
            )
        resume_steps = min(resume_steps, len(log) - 1)
        inputs = [SHORT.coerce_input(i) for i in observed or witness]
        inputs += [SHORT.coerce_input({})] * len(log)
        # A resumed session's history view: an optional synthetic
        # stand-in for the unobserved steps, then the observed inputs.
        history = tuple(inputs[:seed_inputs]) + tuple(
            inputs[resume_steps : len(log)]
        )
        monitor = LogValidityMonitor(SPEC, SHORT, DB)
        found = []
        junk_state = SHORT.initial_state()
        for step in range(resume_steps + 1, len(log) + 1):
            observed_count = step - resume_steps
            stage = StageView(
                step=step,
                inputs=history[seed_inputs + observed_count - 1],
                output=junk_state,  # the monitor must not read these
                state_before=junk_state,
                state_after=junk_state,
                log_entry=log[step - 1],
                inputs_so_far=history[: seed_inputs + observed_count],
                log_so_far=tuple(log[:step]),
                resume_steps=resume_steps,
            )
            if monitor.observe(stage):
                found.append(step)
        assert found == expected_steps(log, resume_steps + 1)


# -- the replay trusts nothing the service says about its state -------------------


def forgetful_short() -> FunctionalTransducer:
    """SHORT's output function over a state that is lost every step."""
    return FunctionalTransducer(
        SHORT.schema,
        lambda inputs, state, database: SHORT.initial_state(),
        SHORT.output_function,
    )


class TestReplayIgnoresServingState:
    def test_lost_serving_state_is_caught(self):
        # The service forgets the order, so paying for it delivers
        # nothing.  Replaying from the service's (empty) state would
        # reproduce that entry; the monitor's own run does not.
        script = [{"order": {("time",)}}, {"pay": {("time", 55)}}]
        service, auditor, log = drive(forgetful_short(), script)
        assert [f.step for f in auditor.findings()] == [2]
        assert expected_steps(log, 1) == [2]
        assert service.metrics.audit_bsr_decisions == 1

    def test_mid_run_divergence_caught_on_the_same_step(self):
        # The buggy store agrees with SHORT for three steps, then
        # delivers the unpaid newsweek.
        script = [
            {"order": {("time",)}},
            {"pay": {("time", 55)}},
            {"order": {("newsweek",)}},
            {},
            {"order": {("le_monde",)}},
        ]
        service, auditor, log = drive(build_buggy_store(), script)
        assert [f.step for f in auditor.findings()] == [4]
        assert expected_steps(log, 1) == [4]
        # Steps 1-3 replay; step 4 decides and latches; step 5 is quiet.
        assert service.metrics.audit_bsr_decisions == 1
        assert service.metrics.audit_checks == 5


class TestResumedSessions:
    def resume(self, tmp_path, served, before, after):
        path = tmp_path / "pods.sqlite"
        first = PodService(
            served(),
            default_database(),
            store=SqliteStore(path),
            auditor=OnlineAuditor([SPEC], reference=SHORT),
        )
        handle = first.create_session("alice")
        for inputs in before:
            first.submit(StepRequest(handle, inputs))
        first.close()
        revived = PodService(
            served(),
            default_database(),
            store=SqliteStore(path),
            auditor=OnlineAuditor([SPEC], reference=SHORT),
        )
        for inputs in after:
            revived.submit(StepRequest("alice", inputs))
        log = list(revived.session("alice").log().entries)
        return revived, log

    def test_one_anchor_decision_then_the_fast_path(self, tmp_path):
        revived, log = self.resume(
            tmp_path,
            build_short,
            [{"order": {("time",)}}, {"pay": {("time", 55)}}],
            [{"order": {("newsweek",)}}, {}, {"pay": {("newsweek", 45)}}],
        )
        assert revived.audit_findings() == []
        assert expected_steps(log, 1) == []
        assert revived.metrics.audit_checks == 3
        assert revived.metrics.audit_bsr_decisions == 1

    def test_divergence_after_resume_matches_the_oracle(self, tmp_path):
        revived, log = self.resume(
            tmp_path,
            build_buggy_store,
            [{"order": {("time",)}}, {"pay": {("time", 55)}}],
            [{"order": {("newsweek",)}}, {}, {"pay": {("newsweek", 45)}}],
        )
        findings = revived.audit_findings()
        assert [f.step for f in findings] == expected_steps(log, 1) == [4]
        assert findings[0].trace.resume_steps == 2
        assert findings[0].trace.reproduces(build_buggy_store())
        # The anchor decision on step 3, the divergence on step 4.
        assert revived.metrics.audit_bsr_decisions == 2


# -- observability -------------------------------------------------------------


class TestBsrDecisionCounter:
    def test_clean_fraud_detection_traffic_decides_nothing(self):
        report = run_scenario("fraud-detection", sessions=6, steps=6, seed=3)
        assert report.audit_checks == report.total_steps > 0
        assert report.audit_violations == 0
        assert report.metrics["audit_bsr_decisions"] == 0

    def test_counter_is_summed_across_merges(self):
        parts = []
        for decisions in (2, 5):
            metrics = RuntimeMetrics()
            metrics.record_audit(AuditOutcome(checks=1, bsr_decisions=decisions))
            parts.append(metrics)
        snapshots = [m.snapshot() for m in parts]
        assert merge_snapshots(snapshots)["audit_bsr_decisions"] == 7
        # Snapshots from workers that predate the counter count as 0.
        del snapshots[0]["audit_bsr_decisions"]
        assert merge_snapshots(snapshots)["audit_bsr_decisions"] == 5

