"""The typed Verifier API: specs, verdicts, traces, online audits.

Covers the PR 4 acceptance criteria:

* every failing Verdict carries a CounterexampleTrace whose replay
  through a fresh PodService deterministically reproduces the recorded
  violating log (hypothesis round-trip over random scripts);
* the OnlineAuditor flags the same violations stepwise that the offline
  Verifier finds on the full log;
* the legacy module-level entry points warn exactly once per process;
* audit counters surface through RuntimeMetrics (merged across shards).
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import (
    build_buggy_store,
    build_short,
    default_database,
)
from repro.datalog.ast import Variable
from repro.errors import AuditViolation, SpecError, UndecidableError
from repro.logic.fol import And, Forall, Implies, Not, Rel
from repro.pods import PodService, StepRequest
from repro.server import PodClient, PodServer
from repro.verify import Goal
from repro.verify.api import (
    AllOf,
    AnyOf,
    ErrorFreeness,
    GoalReachability,
    KIND_COUNTEREXAMPLE,
    KIND_WITNESS,
    LogValidity,
    OnlineAuditor,
    TemporalProperty,
    Verifier,
    compile_temporal_violation,
)
from repro.verify.tsdi import TsdiConjunct, TsdiSentence


def short_log_auditor(shard_index):
    """Module-level (picklable) auditor factory for pod-server workers."""
    return OnlineAuditor([LogValidity()], reference=build_short())


X, Y = Variable("X"), Variable("Y")

#: "deliver(x) at price y requires a previous pay(x, y)" -- Section 2.1.
PAID_DELIVERY = Forall(
    (X, Y),
    Implies(
        And((Rel("deliver", (X,)), Rel("price", (X, Y)))),
        Rel("past-pay", (X, Y)),
    ),
)

FIGURE1_PREFIX = [
    {"order": {("time",)}},
    {"pay": {("time", 55)}},
]


@pytest.fixture
def verifier(short, catalog_db):
    return Verifier(short, catalog_db)


class TestOfflineVerdicts:
    def test_valid_log_verdict_carries_replaying_witness(
        self, short, catalog_db, verifier
    ):
        log = short.log_of(catalog_db, FIGURE1_PREFIX)
        verdict = verifier.check(LogValidity(log))
        assert verdict.holds and bool(verdict)
        assert verdict.trace is not None
        assert verdict.trace.kind == KIND_WITNESS
        assert verdict.counterexample is None
        assert verdict.trace.reproduces(short, catalog_db)

    def test_forged_log_counterexample_localizes_first_bad_step(
        self, short, catalog_db, verifier
    ):
        log = [
            {name: entry[name] for name in entry.schema.names}
            for entry in short.log_of(catalog_db, FIGURE1_PREFIX)
        ]
        # Unpaid delivery injected at step 2.
        log[1] = dict(log[1])
        log[1]["deliver"] = frozenset({("le_monde",)})
        verdict = verifier.check(LogValidity(tuple(log)))
        assert not verdict.holds
        trace = verdict.counterexample
        assert trace is not None and trace.kind == KIND_COUNTEREXAMPLE
        assert trace.step == 2
        assert len(trace.log) == 1  # the maximal realizable prefix
        assert trace.reproduces(short, catalog_db)

    def test_offline_log_validity_requires_a_log(self, verifier):
        with pytest.raises(SpecError):
            verifier.check(LogValidity())

    def test_temporal_property_holds_on_short_fails_on_buggy(
        self, short, buggy, catalog_db
    ):
        spec = TemporalProperty(PAID_DELIVERY, name="paid delivery")
        assert Verifier(short, catalog_db).check(spec).holds
        verdict = Verifier(buggy, catalog_db).check(spec)
        assert not verdict.holds
        trace = verdict.counterexample
        assert trace is not None and trace.step is not None
        assert trace.reproduces(buggy, catalog_db)

    def test_schema_level_counterexample_carries_witness_database(
        self, buggy
    ):
        verdict = Verifier(buggy).check(TemporalProperty(PAID_DELIVERY))
        assert not verdict.holds
        trace = verdict.counterexample
        assert trace.database is not None
        assert trace.reproduces(buggy)  # replays over the witness db

    def test_reachability_witness_and_dead_prefix(
        self, short, catalog_db, verifier
    ):
        goal = Goal.atoms(deliver=("time",))
        verdict = verifier.check(GoalReachability(goal))
        assert verdict.holds
        assert verdict.trace.kind == KIND_WITNESS
        assert verdict.trace.reproduces(short, catalog_db)
        # A product outside the catalog can never be delivered.
        dead = verifier.check(
            GoalReachability(Goal.atoms(deliver=("vogue",)), prefix=(FIGURE1_PREFIX[0],))
        )
        assert not dead.holds
        trace = dead.counterexample
        assert trace is not None and len(trace) == 1
        assert trace.reproduces(short, catalog_db)

    def test_error_freeness_without_sentence_is_temporal(
        self, short, catalog_db
    ):
        guarded = short.with_extra_rules(
            "error :- pay(X, Y), NOT price(X, Y);",
            extra_outputs={"error": 0},
        )
        verdict = Verifier(guarded, catalog_db).check(ErrorFreeness())
        assert not verdict.holds  # a bad payment is always possible
        assert verdict.counterexample.reproduces(guarded, catalog_db)

    def test_error_freeness_with_tsdi_sentence(self, short, catalog_db):
        # Positive-state-only discipline enforcement (Theorem 4.4 scope).
        guarded = short.with_extra_rules(
            "error :- pay(X, Y), NOT price(X, Y);",
            extra_outputs={"error": 0},
        )
        holds = TsdiSentence.of(TsdiConjunct.parse("pay(X,Y)", "price(X,Y)"))
        assert Verifier(guarded, catalog_db).check(ErrorFreeness(holds)).holds
        # A discipline the error rules do not enforce fails, with a
        # replayable error-free counterexample run.
        fails = TsdiSentence.of(
            TsdiConjunct.parse("pay(X,Y)", "past-order(X)")
        )
        verdict = Verifier(guarded, catalog_db).check(ErrorFreeness(fails))
        assert not verdict.holds
        assert verdict.counterexample.reproduces(guarded, catalog_db)

    def test_error_freeness_rejects_negative_state_error_rules(
        self, catalog_db
    ):
        from repro.commerce.models import build_guarded_store

        guarded = build_guarded_store()
        sentence = TsdiSentence.of(TsdiConjunct.parse("pay(X,Y)", "price(X,Y)"))
        with pytest.raises(UndecidableError):
            Verifier(guarded, catalog_db).check(ErrorFreeness(sentence))

    def test_combinators_aggregate_children(self, short, buggy, catalog_db):
        spec_ok = TemporalProperty(PAID_DELIVERY)
        goal = GoalReachability(Goal.atoms(deliver=("time",)))
        both = Verifier(short, catalog_db).check(AllOf.of(spec_ok, goal))
        assert both.holds and len(both.children) == 2

        on_buggy = Verifier(buggy, catalog_db).check(AllOf.of(goal, spec_ok))
        assert not on_buggy.holds
        assert on_buggy.counterexample is not None
        assert on_buggy.counterexample.reproduces(buggy, catalog_db)

        any_of = Verifier(buggy, catalog_db).check(AnyOf.of(spec_ok, goal))
        assert any_of.holds  # the goal is still reachable on buggy

    def test_containment_facade(self, short, friendly, catalog_db):
        # The paper's short/friendly comparison: pointwise log equality
        # (the partial-log sufficient criterion) holds.
        verdict = Verifier(short, catalog_db).check_containment(
            friendly, pointwise=True
        )
        assert verdict.holds

    def test_containment_counterexample_replays(self, short, catalog_db):
        # A customization that logs an extra delivery diverges.
        eager = short.with_extra_rules(
            "deliver(X) :- order(X), available(X);"
        )
        verdict = Verifier(short, catalog_db).check_containment(
            eager, pointwise=True
        )
        assert not verdict.holds
        trace = verdict.counterexample
        assert trace is not None
        assert trace.reproduces(eager, catalog_db)


class TestCheckRunAndAuditorAgree:
    def test_online_auditor_matches_offline_check_run(
        self, short, buggy, catalog_db
    ):
        specs = [
            LogValidity(),
            TemporalProperty(PAID_DELIVERY, name="paid delivery"),
        ]
        script = [{"order": {("time",)}}, {}, {"pay": {("time", 55)}}]

        auditor = OnlineAuditor(specs, reference=short)
        service = PodService(buggy, catalog_db, auditor=auditor)
        handle = service.create_session("audited")
        for step_inputs in script:
            service.submit(StepRequest(handle, step_inputs))
        online = service.audit_findings()

        offline = Verifier(short, catalog_db)
        for spec in specs:
            verdict = offline.check_run(spec, script, transducer=buggy)
            matching = [f for f in online if f.spec == spec]
            assert (not verdict.holds) == bool(matching)
            if matching:
                assert matching[0].step == verdict.trace.step
        # Both specs are violated at step 2 (unpaid delivery).
        assert sorted({f.step for f in online}) == [2]
        for finding in online:
            assert finding.trace.reproduces(buggy, catalog_db)

    def test_clean_traffic_produces_no_findings(self, short, catalog_db):
        auditor = OnlineAuditor(
            [LogValidity(), TemporalProperty(PAID_DELIVERY)]
        )
        service = PodService(short, catalog_db, auditor=auditor)
        handle = service.create_session("clean")
        for step_inputs in FIGURE1_PREFIX:
            service.submit(StepRequest(handle, step_inputs))
        assert service.audit_findings() == []
        snapshot = service.metrics.snapshot()
        assert snapshot["audited_steps"] == 2
        assert snapshot["audit_checks"] == 4
        assert snapshot["audit_violations"] == 0

    def test_strict_auditor_raises_after_applying_the_step(
        self, short, buggy, catalog_db
    ):
        auditor = OnlineAuditor(
            [TemporalProperty(PAID_DELIVERY)], reference=short, strict=True
        )
        service = PodService(buggy, catalog_db, auditor=auditor)
        handle = service.create_session("strict")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        with pytest.raises(AuditViolation) as excinfo:
            service.submit(StepRequest(handle, {}))
        assert excinfo.value.findings[0].step == 2
        # The violating step was applied and persisted before the raise.
        assert service.session(handle).steps == 2
        assert service.metrics.audit_violations == 1

    def test_goal_reachability_monitor_latches_on_lost_goal(
        self, short, catalog_db
    ):
        # "vogue" is not in the catalog: the goal is dead from step 1.
        auditor = OnlineAuditor(
            [GoalReachability(Goal.atoms(deliver=("vogue",)))]
        )
        service = PodService(short, catalog_db, auditor=auditor)
        handle = service.create_session("progress")
        for step_inputs in FIGURE1_PREFIX:
            service.submit(StepRequest(handle, step_inputs))
        findings = service.audit_findings()
        assert [f.step for f in findings] == [1]  # latched, not repeated

    def test_sharded_service_audits_per_shard_and_merges_metrics(
        self, buggy, catalog_db
    ):
        with PodServer(
            build_buggy_store,
            catalog_db,
            workers=2,
            auditor_factory=short_log_auditor,
        ) as server, PodClient(server.url, buggy) as service:
            handles = [service.create_session(f"c{n}") for n in range(6)]
            for handle in handles:
                service.run_session(handle, [{"order": {("time",)}}, {}])
            findings = service.audit_findings()
            payload = service.metrics_payload()
        assert {f.session_id for f in findings} == {f"c{n}" for n in range(6)}
        merged = payload["pods"]
        assert merged["audit_violations"] == len(findings) == 6
        assert merged["audited_steps"] == 12
        # Each worker audited its own sessions with its own auditor.
        assert {handle.shard for handle in handles} == {0, 1}
        assert [row["audited_steps"] for row in payload["per_worker"]] == [
            2 * sum(1 for handle in handles if handle.shard == index)
            for index in range(2)
        ]

    def test_resumed_sessions_keep_log_shaped_audits(
        self, short, buggy, catalog_db, tmp_path
    ):
        def auditor():
            return OnlineAuditor([LogValidity()], reference=short)

        service = PodService(
            buggy, catalog_db, store=str(tmp_path), auditor=auditor()
        )
        handle = service.create_session("alice")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        assert service.audit_findings() == []
        del service

        revived = PodService(
            buggy, catalog_db, store=str(tmp_path), auditor=auditor()
        )
        revived.submit(StepRequest("alice", {}))  # unpaid delivery
        findings = revived.audit_findings()
        assert [f.step for f in findings] == [2]
        # The trace carries the resume point, so its replay resumes
        # from a snapshot and reproduces the *full* violating log.
        trace = findings[0].trace
        assert trace.resume_steps == 1 and len(trace.log) == 2
        assert trace.reproduces(buggy, catalog_db)

    def test_keep_logs_off_still_audits_log_validity(
        self, short, buggy, catalog_db
    ):
        # The service retains no logs, but the auditor computes each
        # step's entry itself -- the spec is still enforced.
        auditor = OnlineAuditor([LogValidity()], reference=short)
        service = PodService(
            buggy, catalog_db, keep_logs=False, auditor=auditor
        )
        handle = service.create_session("quiet")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.submit(StepRequest(handle, {}))  # unpaid delivery
        findings = service.audit_findings()
        assert [f.step for f in findings] == [2]
        assert findings[0].trace.reproduces(buggy, catalog_db)

    def test_resume_without_stored_log_rejects_auditing(
        self, short, buggy, catalog_db, tmp_path
    ):
        # A keep_logs=False store kept no history: no finding on the
        # resumed session could carry a replayable trace, so the
        # auditor refuses for every spec shape (not just log-shaped).
        service = PodService(buggy, catalog_db, store=str(tmp_path),
                             keep_logs=False)
        handle = service.create_session("nolog")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        del service
        for spec in (LogValidity(), TemporalProperty(PAID_DELIVERY)):
            revived = PodService(
                buggy,
                catalog_db,
                store=str(tmp_path),
                keep_logs=False,
                auditor=OnlineAuditor([spec], reference=short),
            )
            with pytest.raises(SpecError):
                revived.submit(StepRequest("nolog", {}))

    def test_resume_across_keep_logs_modes_keeps_replayable_traces(
        self, short, buggy, catalog_db, tmp_path
    ):
        # The store kept the log; a keep_logs=False service resuming
        # over it still audits, and traces resume from the snapshot.
        service = PodService(buggy, catalog_db, store=str(tmp_path))
        handle = service.create_session("mixed")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        del service
        revived = PodService(
            buggy,
            catalog_db,
            store=str(tmp_path),
            keep_logs=False,
            auditor=OnlineAuditor([LogValidity()], reference=short),
        )
        revived.submit(StepRequest("mixed", {}))  # unpaid delivery
        findings = revived.audit_findings()
        assert [f.step for f in findings] == [2]
        assert findings[0].trace.resume_steps == 1
        assert findings[0].trace.reproduces(buggy, catalog_db)

    def test_audit_traces_are_self_contained(self, short, buggy, catalog_db):
        auditor = OnlineAuditor([LogValidity()], reference=short)
        service = PodService(buggy, catalog_db, auditor=auditor)
        handle = service.create_session("portable")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.submit(StepRequest(handle, {}))
        trace = service.audit_findings()[0].trace
        # The trace carries the audited database: replaying with only
        # the transducer (e.g. in another process) must reproduce.
        assert trace.database is not None
        assert trace.reproduces(buggy)

    def test_resumed_sessions_recover_reachability_prefix(
        self, catalog_db, tmp_path
    ):
        # The step-1 input forecloses the goal; the auditor only
        # attaches after a restart, so it must reconstruct the
        # pre-restart inputs from the cumulative state.
        from repro.core.spocus import SpocusTransducer

        transducer = SpocusTransducer.make(
            inputs={"a": 1, "b": 1},
            outputs={"win": 1},
            database={"item": 1},
            rules="win(X) :- b(X), item(X), NOT past-a(X);",
            log=("win",),
        )
        database = {"item": {("t",)}}
        spec = GoalReachability(Goal.atoms(win=("t",)))

        service = PodService(transducer, database, store=str(tmp_path))
        handle = service.create_session("foreclosed")
        service.submit(StepRequest(handle, {"a": {("t",)}}))
        del service

        revived = PodService(
            transducer,
            database,
            store=str(tmp_path),
            auditor=OnlineAuditor([spec]),
        )
        revived.submit(StepRequest("foreclosed", {}))
        findings = revived.audit_findings()
        assert [f.step for f in findings] == [2]
        assert "no longer reachable" in findings[0].violation

    def test_monitor_plan_compilation_reaches_metrics(
        self, short, catalog_db
    ):
        auditor = OnlineAuditor([TemporalProperty(PAID_DELIVERY)])
        service = PodService(short, catalog_db, auditor=auditor)
        handle = service.create_session("counted")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        snapshot = service.metrics.snapshot()
        # The monitor's violation plan was compiled (or cache-hit) at
        # register time; that work must show up in the service metrics.
        assert snapshot["plans_compiled"] + snapshot["plan_cache_hits"] >= 2

    def test_any_of_counts_latched_children_as_violating(
        self, short, buggy, catalog_db
    ):
        # After step 2 the LogValidity child latches; the AnyOf must
        # still report step 3, where the temporal child violates again.
        spec = AnyOf.of(LogValidity(), TemporalProperty(PAID_DELIVERY))
        auditor = OnlineAuditor([spec], reference=short)
        service = PodService(buggy, catalog_db, auditor=auditor)
        handle = service.create_session("anyof")
        for step_inputs in [{"order": {("time",)}}, {}, {}]:
            service.submit(StepRequest(handle, step_inputs))
        solo = OnlineAuditor([TemporalProperty(PAID_DELIVERY)])
        solo_service = PodService(buggy, catalog_db, auditor=solo)
        solo_handle = solo_service.create_session("solo")
        for step_inputs in [{"order": {("time",)}}, {}, {}]:
            solo_service.submit(StepRequest(solo_handle, step_inputs))
        assert [f.step for f in service.audit_findings()] == [
            f.step for f in solo_service.audit_findings()
        ] == [2, 3]


class TestTraceRoundTrip:
    """Hypothesis: every verdict trace replays deterministically."""

    products = st.sampled_from(["time", "newsweek", "le_monde"])

    @st.composite
    def scripts(draw):
        steps = draw(st.integers(min_value=1, max_value=3))
        script = []
        ordered = []
        for _ in range(steps):
            inputs = {}
            order = draw(
                st.lists(
                    TestTraceRoundTrip.products, max_size=2, unique=True
                )
            )
            if order:
                inputs["order"] = {(p,) for p in order}
                ordered.extend(order)
            if ordered and draw(st.booleans()):
                paid = draw(st.sampled_from(sorted(set(ordered))))
                from repro.commerce.models import PRICES

                inputs["pay"] = {(paid, PRICES[paid])}
            script.append(inputs)
        return script

    @given(script=scripts(), forge=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_log_validity_round_trip(self, script, forge):
        short = build_short()
        db = default_database()
        log = [
            {name: entry[name] for name in entry.schema.names}
            for entry in short.log_of(db, script)
        ]
        if forge:
            last = dict(log[-1])
            last["deliver"] = frozenset(last["deliver"] | {("vogue",)})
            log[-1] = last
        verdict = Verifier(short, db).check(LogValidity(tuple(log)))
        assert verdict.holds == (not forge)
        trace = verdict.trace
        assert trace is not None
        # The acceptance criterion: replaying the trace through a fresh
        # PodService reproduces the recorded log exactly.
        assert trace.reproduces(short, db)
        if forge:
            assert trace.kind == KIND_COUNTEREXAMPLE
            assert trace.step is not None

    @given(script=scripts())
    @settings(max_examples=8, deadline=None)
    def test_audit_findings_round_trip_on_buggy(self, script):
        short, buggy, db = build_short(), build_buggy_store(), default_database()
        auditor = OnlineAuditor(
            [LogValidity(), TemporalProperty(PAID_DELIVERY)], reference=short
        )
        service = PodService(buggy, db, auditor=auditor)
        handle = service.create_session("fuzzed")
        for step_inputs in script:
            service.submit(StepRequest(handle, step_inputs))
        for finding in service.audit_findings():
            assert finding.trace.reproduces(buggy, db)


class TestViolationCompilation:
    def test_paid_delivery_compiles_to_a_safe_violation_rule(self, short):
        program = compile_temporal_violation(short, PAID_DELIVERY)
        assert program is not None and len(program) == 1
        rule = program.rules[0]
        assert rule.head.predicate == "__violation"
        assert {a.predicate for a in rule.positive_atoms()} == {
            "deliver", "price",
        }
        assert {a.predicate for a in rule.negated_atoms()} == {"past-pay"}

    def test_unsafe_disjunct_falls_back_to_naive(self, short):
        # ∀x deliver(x): the violation ∃x ¬deliver(x) is unsafe.
        formula = Forall((X,), Rel("deliver", (X,)))
        assert compile_temporal_violation(short, formula) is None

    def test_unknown_relation_is_a_spec_error(self, short):
        with pytest.raises(SpecError):
            compile_temporal_violation(
                short, Forall((X,), Not(Rel("nope", (X,))))
            )

    def test_plan_and_naive_monitors_agree(self, short, buggy, catalog_db):
        from repro.verify.api.monitor import TemporalMonitor

        script = [{"order": {("time",)}}, {}, {"pay": {("time", 55)}}]
        for transducer in (short, buggy):
            run = transducer.run(catalog_db, script)
            spec = TemporalProperty(PAID_DELIVERY)
            plan_monitor = TemporalMonitor(
                spec, transducer, transducer.coerce_database(catalog_db)
            )
            assert plan_monitor.plan_backed
            naive_monitor = TemporalMonitor(
                spec, transducer, transducer.coerce_database(catalog_db)
            )
            naive_monitor._program = None  # force the naive path
            verdicts = []
            for index in range(len(run.inputs)):
                stage = Verifier._stage_view(run, index)
                verdicts.append(
                    (
                        bool(plan_monitor.observe(stage)),
                        bool(naive_monitor.observe(stage)),
                    )
                )
            assert all(p == n for p, n in verdicts)


class TestDeprecationShim:
    """The verification API emits no DeprecationWarning of its own."""

    def test_new_api_never_warns(self, short, catalog_db):
        log = short.log_of(catalog_db, FIGURE1_PREFIX)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verifier = Verifier(short, catalog_db)
            verifier.check(LogValidity(log))
            verifier.check(TemporalProperty(PAID_DELIVERY))
            verifier.check_run(LogValidity(), FIGURE1_PREFIX)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
