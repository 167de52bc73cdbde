"""Shadow-deploy containment audits and the persistent audit ledger.

The acceptance bar of the shadow subsystem:

* *no false positives*: shadowing every registered scenario against an
  identical candidate reports zero divergences and byte-identical log
  digests on both sides;
* *detection*: the deliberately-buggy store candidate yields a
  divergence whose :class:`CounterexampleTrace` replays
  deterministically -- reproducing on the incumbent's transducer and
  failing on the candidate's;
* *containment vs equivalence*: a candidate that logs strictly less
  passes a containment policy and fails a strict one;
* *durability*: findings written through each store backend
  (memory/jsonl/sqlite) are byte-identical after a restart +
  rehydration, ``forget_session`` prunes the ledger, and findings are
  queryable over HTTP (``GET /v1/audits``) across a server restart;
* *every step*: the auditor checks every step, so a latching monitor
  reports on the step where its property first fails.
"""

import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import (
    build_buggy_store,
    build_short,
    default_database,
)
from repro.errors import ShadowDivergence, SpecError
from repro.pods.api import SessionHandle, StepRequest
from repro.pods.service import PodService
from repro.scenarios import (
    open_loop_events,
    run_scenario,
    scenario_names,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.server import PodClient, PodServer
from repro.shadow import (
    KIND_CANDIDATE_ERROR,
    KIND_LOG_DIVERGENCE,
    AuditLedger,
    ComparisonPolicy,
    DivergenceReport,
    ShadowService,
    decode_record,
    encode_record,
)
from repro.verify.api import GoalReachability, LogValidity, OnlineAuditor


def short_vs_buggy(policy=None, ledger=None):
    """The canonical divergence pair: same schema, one dropped guard."""
    db = default_database()
    return ShadowService(
        PodService(build_short(), db),
        PodService(build_buggy_store(), db),
        policy=policy,
        ledger=ledger,
    )


def drive_two_orders(shadow, session_id="s1"):
    """Order twice: SHORT never delivers, buggy delivers at step 2."""
    handle = shadow.create_session(session_id)
    shadow.submit(StepRequest(handle, {"order": {("time",)}}))
    shadow.submit(StepRequest(handle, {"order": {("newsweek",)}}))
    return handle


# -- no false positives: identical candidates ---------------------------------


class TestIdenticalCandidate:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_shadows_itself_cleanly(self, name):
        report = run_scenario(
            name, sessions=3, steps=3, shadow_candidate=name
        )
        assert report.divergences == 0
        assert report.first_divergence_step is None
        assert report.log_digest is not None
        assert report.shadow_log_digest == report.log_digest

    def test_shadow_surface_is_the_pod_surface(self):
        shadow = short_vs_buggy()
        handle = shadow.create_session("s1")
        assert shadow.has_session(handle)
        assert shadow.session_ids() == ["s1"]
        results = shadow.run_session(handle, [{"order": {("time",)}}])
        assert [r.step for r in results] == [1]
        assert shadow.session("s1").steps == 1
        log = shadow.close_session(handle)
        assert len(log) == 1
        assert shadow.session_ids() == []


# -- detection ----------------------------------------------------------------


class TestDivergenceDetection:
    def test_buggy_candidate_diverges_with_replayable_trace(self):
        shadow = short_vs_buggy()
        drive_two_orders(shadow)
        assert shadow.divergence_count() == 1
        report = shadow.first_divergence()
        assert report.kind == KIND_LOG_DIVERGENCE
        assert report.step == 2
        # The candidate delivered without payment; the incumbent did not.
        assert report.candidate["deliver"] == frozenset({("time",)})
        assert report.incumbent["deliver"] == frozenset()
        # The trace is the machine-checkable statement "these two are
        # not log-equivalent on this run".
        assert report.trace.reproduces(build_short())
        assert not report.trace.reproduces(build_buggy_store())

    def test_detection_is_deterministic(self):
        reports = []
        for _ in range(2):
            shadow = short_vs_buggy()
            drive_two_orders(shadow)
            reports.append(shadow.first_divergence())
        assert reports[0] == reports[1]
        # Replay is deterministic too: same verdict both times.
        assert [reports[0].trace.reproduces(build_short()) for _ in range(2)] \
            == [True, True]

    def test_containment_policy_admits_a_quieter_candidate(self):
        # Reversed roles: the buggy store (logs MORE) serves as the
        # incumbent, SHORT as the candidate.  SHORT's log entries are
        # contained in buggy's, so containment stays silent...
        db = default_database()
        contained = ShadowService(
            PodService(build_buggy_store(), db),
            PodService(build_short(), db),
            policy=ComparisonPolicy.containment(),
        )
        drive_two_orders(contained)
        assert contained.divergence_count() == 0
        # ...while strict equivalence flags the same pair.
        strict = ShadowService(
            PodService(build_buggy_store(), db),
            PodService(build_short(), db),
            policy=ComparisonPolicy.strict(),
        )
        drive_two_orders(strict)
        assert strict.divergence_count() == 1

    def test_offline_verdict_agrees_with_online_observation(self):
        shadow = short_vs_buggy()
        drive_two_orders(shadow)
        verdict = shadow.containment_verdict()
        assert verdict is not None and not verdict.contained

    def test_fail_closed_raises_shadow_divergence(self):
        shadow = short_vs_buggy(
            policy=ComparisonPolicy.strict(fail_open=False)
        )
        handle = shadow.create_session("s1")
        shadow.submit(StepRequest(handle, {"order": {("time",)}}))
        with pytest.raises(ShadowDivergence) as caught:
            shadow.submit(StepRequest(handle, {"order": {("newsweek",)}}))
        assert caught.value.report.kind == KIND_LOG_DIVERGENCE
        # The incumbent stayed authoritative: its step was applied
        # before the comparison raised.
        assert shadow.incumbent.session("s1").steps == 2

    def test_crashing_candidate_detaches_after_one_report(self):
        class ExplodingCandidate:
            def create_session(self, session_id=None):
                return SessionHandle(session_id or "x")

            def submit(self, request):
                raise RuntimeError("candidate down")

        db = default_database()
        shadow = ShadowService(
            PodService(build_short(), db), ExplodingCandidate()
        )
        handle = shadow.create_session("s1")
        for _ in range(3):
            shadow.submit(StepRequest(handle, {"order": {("time",)}}))
        assert shadow.incumbent.session("s1").steps == 3
        reports = shadow.divergences()
        assert [r.kind for r in reports] == [KIND_CANDIDATE_ERROR]

    def test_policy_validation(self):
        with pytest.raises(SpecError):
            ComparisonPolicy(mode="fuzzy")


# -- run_scenario / CLI wiring ------------------------------------------------


class TestScenarioShadow:
    def test_adversarial_candidate_reports_divergences(self):
        report = run_scenario(
            "commerce", sessions=6, steps=4, shadow_candidate="adversarial"
        )
        assert report.shadow_candidate == "adversarial"
        assert report.divergences >= 1
        assert report.first_divergence_step is not None
        assert report.shadow_log_digest != report.log_digest

    def test_cli_shadow_gate_exit_codes(self, capsys):
        args = ["--run", "commerce", "--sessions", "4", "--steps", "3"]
        assert scenarios_main(args + ["--shadow", "adversarial"]) == 1
        assert "divergences" in capsys.readouterr().out
        assert scenarios_main(args + ["--shadow", "commerce"]) == 0
        assert scenarios_main(args) == 0


# -- the persistent ledger ----------------------------------------------------


class TestAuditLedger:
    @given(seed=st.integers(0, 10), kind=st.sampled_from(
        ["memory", "jsonl", "sqlite"]
    ))
    @settings(max_examples=12, deadline=None)
    def test_findings_survive_restart_byte_identically(self, seed, kind):
        db = default_database()
        with tempfile.TemporaryDirectory() as tmp:
            if kind == "memory":
                target = AuditLedger(None)
            elif kind == "jsonl":
                target = os.path.join(tmp, "ledger")
            else:
                target = os.path.join(tmp, "ledger.sqlite")
            auditor = OnlineAuditor(
                [LogValidity(name="log validates against SHORT")],
                reference=build_short(),
                ledger=target,
            )
            service = PodService(build_buggy_store(), db, auditor=auditor)
            # seed-varied violating traffic: order K products, never pay
            products = ["time", "newsweek", "le_monde"]
            handle = service.create_session("s1")
            for step in range(2 + seed % 2):
                product = products[(seed + step) % len(products)]
                service.submit(StepRequest(handle, {"order": {(product,)}}))
            before = [
                json.dumps(encode_record(f), sort_keys=True)
                for f in auditor.findings()
            ]
            assert before, "buggy traffic must produce findings"
            # Restart: a fresh auditor over the same backing store.
            if kind == "memory":
                restarted_target = target  # the live store survives
            else:
                auditor.ledger.close()
                restarted_target = target
            rehydrated = OnlineAuditor(
                [LogValidity(name="log validates against SHORT")],
                reference=build_short(),
                ledger=restarted_target,
            )
            after = [
                json.dumps(encode_record(f), sort_keys=True)
                for f in rehydrated.findings()
            ]
            assert after == before
            # The rehydrated finding still replays.
            finding = rehydrated.findings()[0]
            assert finding.trace.reproduces(build_buggy_store())
            # forget_session prunes the ledger: gone from the live
            # auditor AND from the next rehydration.
            rehydrated.forget_session("s1")
            assert rehydrated.findings() == []
            if kind == "memory":
                pruned_target = restarted_target
            else:
                rehydrated.ledger.close()
                pruned_target = target
            assert OnlineAuditor([], ledger=pruned_target).findings() == []

    def test_record_codec_round_trips_divergence_reports(self):
        ledger = AuditLedger(None)
        shadow = short_vs_buggy(ledger=ledger)
        drive_two_orders(shadow)
        report = shadow.first_divergence()
        blob = json.dumps(encode_record(report), sort_keys=True)
        decoded = decode_record(json.loads(blob))
        assert isinstance(decoded, DivergenceReport)
        assert decoded == report  # trace excluded from equality...
        # ...but carried: the decoded trace replays identically.
        assert decoded.trace.reproduces(build_short())
        assert json.dumps(encode_record(decoded), sort_keys=True) == blob

    def test_earlier_divergence_records_still_rehydrate(self):
        # Earlier ledgers also wrote a "first_divergent_step" key (always
        # equal to "step"); decoding reads only the keys it names.
        from repro.pods.store import open_store
        from repro.shadow import LEDGER_RELATION

        shadow = short_vs_buggy()
        drive_two_orders(shadow)
        report = shadow.first_divergence()
        payload = encode_record(report)
        assert "first_divergent_step" not in payload
        payload["first_divergent_step"] = report.step
        blob = json.dumps(payload, sort_keys=True)
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "ledger.sqlite")
            store = open_store(target)
            store.record_created(report.session_id)
            store.record_step(
                report.session_id, 1, {},
                {LEDGER_RELATION: frozenset({(blob,)})},
            )
            store.close()
            with AuditLedger(target) as ledger:
                (decoded,) = ledger.all_records()
        assert decoded == report
        assert decoded.trace.reproduces(build_short())
        assert not decoded.trace.reproduces(build_buggy_store())

    def test_shadow_divergences_rehydrate_from_ledger(self):
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "shadow.sqlite")
            shadow = short_vs_buggy(ledger=target)
            drive_two_orders(shadow)
            assert shadow.divergence_count() == 1
            shadow.ledger.close()
            reborn = short_vs_buggy(ledger=target)
            assert reborn.divergence_count() == 1
            assert reborn.first_divergence().kind == KIND_LOG_DIVERGENCE

    def test_ledger_rejects_unknown_records(self):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            encode_record({"not": "a record"})
        with pytest.raises(StoreError):
            decode_record({"type": "mystery"})


class TestLedgerRetention:
    """max_findings_per_session= prunes oldest-first on the write path."""

    @staticmethod
    def finding(step):
        from repro.shadow.ledger import LedgerSpec
        from repro.verify.api import AuditFinding

        return AuditFinding(
            session_id="s1",
            step=step,
            spec=LedgerSpec("retention"),
            violation=f"violation #{step}",
        )

    @staticmethod
    def open_ledger(kind, tmp, max_findings):
        if kind == "memory":
            target = None
        elif kind == "jsonl":
            target = os.path.join(tmp, "ledger")
        else:
            target = os.path.join(tmp, "ledger.sqlite")
        return AuditLedger(target, max_findings_per_session=max_findings)

    @pytest.mark.parametrize("kind", ["memory", "jsonl", "sqlite"])
    def test_prunes_oldest_first_and_survives_restart(self, kind):
        with tempfile.TemporaryDirectory() as tmp:
            ledger = self.open_ledger(kind, tmp, max_findings=3)
            for step in range(1, 8):
                ledger.append("s1", self.finding(step))
            kept = [record.step for record in ledger.records("s1")]
            assert kept == [5, 6, 7]
            # Restart: a fresh ledger over the same backing store keeps
            # exactly the retained tail, byte-identically.
            before = [
                json.dumps(encode_record(r), sort_keys=True)
                for r in ledger.records("s1")
            ]
            if kind == "memory":
                reborn = AuditLedger(
                    ledger.store, max_findings_per_session=3
                )
            else:
                ledger.close()
                target = (
                    os.path.join(tmp, "ledger")
                    if kind == "jsonl"
                    else os.path.join(tmp, "ledger.sqlite")
                )
                reborn = AuditLedger(target, max_findings_per_session=3)
            after = [
                json.dumps(encode_record(r), sort_keys=True)
                for r in reborn.records("s1")
            ]
            assert after == before
            # ...and keeps enforcing the bound from the persisted count.
            reborn.append("s1", self.finding(8))
            assert [r.step for r in reborn.records("s1")] == [6, 7, 8]
            reborn.close()

    @pytest.mark.parametrize("kind", ["memory", "jsonl", "sqlite"])
    def test_bound_of_one_keeps_only_the_newest(self, kind):
        with tempfile.TemporaryDirectory() as tmp:
            ledger = self.open_ledger(kind, tmp, max_findings=1)
            for step in (1, 2, 3):
                ledger.append("s1", self.finding(step))
            assert [r.step for r in ledger.records("s1")] == [3]
            ledger.close()

    def test_unbounded_default_retains_everything(self):
        ledger = AuditLedger(None)
        for step in range(1, 6):
            ledger.append("s1", self.finding(step))
        assert [r.step for r in ledger.records("s1")] == [1, 2, 3, 4, 5]

    def test_retention_knob_validation(self):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            AuditLedger(None, max_findings_per_session=0)
        with pytest.raises(StoreError):
            AuditLedger(None, max_findings_per_session="many")


# -- every step is checked ----------------------------------------------------


class TestCheckEvery:
    def test_log_validity_reports_the_divergent_step(self):
        auditor = OnlineAuditor(
            [LogValidity(name="log validates against SHORT")],
            reference=build_short(),
        )
        service = PodService(
            build_buggy_store(), default_database(), auditor=auditor
        )
        handle = service.create_session("s1")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        for _ in range(5):
            service.submit(StepRequest(handle, {"order": {("newsweek",)}}))
        assert [f.step for f in auditor.findings()] == [2]
        assert service.metrics.snapshot()["audit_checks"] == 6

    def test_goal_reachability_reports_the_first_step(self):
        from repro.verify.reachability import Goal

        # vogue has no price row, so delivering it is unreachable from
        # the very first step -- and stays so (latching).
        auditor = OnlineAuditor(
            [GoalReachability(Goal.atoms(deliver=("vogue",)))],
            reference=build_short(),
        )
        service = PodService(
            build_short(), default_database(), auditor=auditor
        )
        handle = service.create_session("s1")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.submit(StepRequest(handle, {"pay": {("time", 55)}}))
        assert [finding.step for finding in auditor.findings()] == [1]


# -- open-loop event timestamps -----------------------------------------------


class TestPacing:
    def test_events_and_schedule_agree(self):
        from repro.scenarios import open_loop_schedule
        from repro.scenarios.registry import resolve_scenario

        workload = resolve_scenario("commerce").workload(
            sessions=3, mean_steps=3, seed=5
        )
        events = open_loop_events(workload, seed=5)
        assert [r for _at, r in events] == open_loop_schedule(
            workload, seed=5
        )
        assert all(
            earlier <= later
            for (earlier, _), (later, _) in zip(events, events[1:])
        )


# -- GET /v1/audits over a server restart -------------------------------------


def ledgered_audit_factory(shard_index):
    """Module-level (picklable) factory: one sqlite ledger per shard.

    Workers are spawned processes; the ledger root travels through the
    environment, which spawn children inherit.
    """
    root = os.environ["REPRO_TEST_LEDGER_ROOT"]
    return OnlineAuditor(
        [LogValidity(name="log validates against SHORT")],
        reference=build_short(),
        ledger=os.path.join(root, f"ledger-{shard_index:02d}.sqlite"),
    )


class TestHttpAudits:
    def test_findings_queryable_over_http_and_survive_restart(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_LEDGER_ROOT", str(tmp_path))
        store_root = str(tmp_path / "store")
        server_kwargs = dict(
            workers=2,
            queue_depth=16,
            store_root=store_root,
            auditor_factory=ledgered_audit_factory,
        )
        with PodServer(
            build_buggy_store, default_database(), **server_kwargs
        ) as server, PodClient(server.url, build_buggy_store()) as client:
            assert client.audit_findings() == []
            for index in range(3):
                handle = client.create_session(f"audit-{index}")
                client.submit(StepRequest(handle, {"order": {("time",)}}))
                client.submit(
                    StepRequest(handle, {"order": {("newsweek",)}})
                )
            before = client.audit_findings()
            assert [f.session_id for f in before] == [
                "audit-0", "audit-1", "audit-2"
            ]
            assert all(f.step == 2 for f in before)
            assert all(
                f.property_name == "log validates against SHORT"
                for f in before
            )
            assert client.audit_findings("audit-1") == [before[1]]
        # Full restart over the same stores and ledgers: the findings
        # are rehydrated into each worker's auditor and served again.
        with PodServer(
            build_buggy_store, default_database(), **server_kwargs
        ) as reborn, PodClient(reborn.url, build_buggy_store()) as client:
            after = client.audit_findings()
            assert after == before


# -- log entries: reused from the serving session, rebuilt only when needed ----


def counting_log_of_step(monkeypatch):
    """Count the shadow's fallback rebuilds of a step's log entry."""
    import repro.shadow.service as shadow_service

    calls = []
    real = shadow_service.log_of_step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(shadow_service, "log_of_step", counted)
    return calls


def report_view(report):
    return (
        report.session_id,
        report.kind,
        report.step,
        report.incumbent,
        report.candidate,
    )


class TestLogEntryReuse:
    def test_matching_log_schemas_reuse_both_entries(self, monkeypatch):
        calls = counting_log_of_step(monkeypatch)
        shadow = short_vs_buggy()
        drive_two_orders(shadow)
        assert calls == []
        assert shadow.divergence_count() == 1

    def test_candidate_with_another_log_takes_the_fallback(self, monkeypatch):
        parent = short_vs_buggy()
        drive_two_orders(parent)
        calls = counting_log_of_step(monkeypatch)
        db = default_database()
        relogged = ShadowService(
            PodService(build_short(), db),
            PodService(build_buggy_store().with_log(("deliver",)), db),
        )
        drive_two_orders(relogged)
        # Only the candidate's entries were rebuilt, one per step.
        assert len(calls) == 2
        assert [report_view(r) for r in relogged.divergences()] == [
            report_view(r) for r in parent.divergences()
        ]
        assert relogged.first_divergence().step == 2

    def test_remote_incumbent_takes_the_fallback(self, monkeypatch):
        parent = short_vs_buggy()
        drive_two_orders(parent)
        calls = counting_log_of_step(monkeypatch)
        db = default_database()
        with (
            PodServer(build_short, db, workers=1, queue_depth=8) as server,
            PodClient(server.url, build_short()) as incumbent,
        ):
            remote = ShadowService(
                incumbent,
                PodService(build_buggy_store(), db),
                database=db,
            )
            drive_two_orders(remote)
            # The client's results equal a local service's: the local
            # result's log entry takes no part in equality.
            local = PodService(build_short(), db)
            client = remote.incumbent
            for service in (local, client):
                service.create_session("cmp")
            request = StepRequest("cmp", {"order": {("time",)}})
            ours, theirs = local.submit(request), client.submit(request)
            assert ours.log_entry is not None and theirs.log_entry is None
            assert replace(ours, latency_seconds=0.0) == replace(
                theirs, latency_seconds=0.0
            )
        # A wire result carries no log entry: the incumbent side is
        # rebuilt on each step, the local candidate's entry is reused.
        assert len(calls) == 2
        assert [report_view(r) for r in remote.divergences()] == [
            report_view(r) for r in parent.divergences()
        ]

    def test_log_entry_stays_off_the_wire_and_out_of_equality(self):
        from repro.server.wire import decode_step_result, encode_step_result

        service = PodService(build_short(), default_database())
        handle = service.create_session("s1")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        result = replace(
            service.submit(StepRequest(handle, {"pay": {("time", 55)}})),
            latency_seconds=0.25,
        )
        assert result.log_entry == service.session(handle).last_log_entry
        assert "log_entry" not in repr(result)
        encoded = json.dumps(
            encode_step_result(result), sort_keys=True, separators=(",", ":")
        )
        assert encoded == (
            '{"latency_seconds":0.25,"output":{"deliver":[["time"]],'
            '"sendbill":[]},"session":{"session_id":"s1","shard":0},'
            '"step":2}'
        )
        remote = decode_step_result(
            json.loads(encoded), build_short().schema.outputs
        )
        assert remote.log_entry is None
        assert remote == result
